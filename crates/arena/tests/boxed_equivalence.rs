//! The arena's non-interference proof: racing Hydra as a boxed
//! `dyn ActivationTracker` — the form the roster hands out — is
//! **call-for-call identical** to the concrete Hydra path every existing
//! gate uses.
//!
//! Two layers are pinned down, both by proptest over arbitrary activation
//! streams:
//!
//! 1. **Simulator layer** — `ActivationSim` over a boxed Hydra produces the
//!    same report, the same mitigated-row log, and the same tracker stats
//!    as `ActivationSim<Hydra>` on the same stream, and the trait object
//!    forwards Hydra's spillover.
//! 2. **Engine layer** — `ShardedSim` running the roster's boxed `hydra`
//!    entry matches the concrete Hydra `ShardedSim` bit-for-bit (report
//!    and sorted mitigated union).
//!
//! Nothing here is statistical: the box forwards every call and moves the
//! tracker's response unchanged, so any divergence is a real behavioral
//! bug.

use hydra_arena::build_tracker;
use hydra_core::{Hydra, HydraConfig};
use hydra_dram::DramTiming;
use hydra_engine::{ShardedSim, WorkerPool};
use hydra_sim::ActivationSim;
use hydra_types::tracker::ActivationTracker;
use hydra_types::{MemGeometry, RowAddr};
use proptest::prelude::*;

/// Hammer-biased streams: most activations collapse onto a hot row set so
/// thresholds actually trip and the comparison is non-vacuous.
fn stream(channels: u8) -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        (0..channels, 0u8..4, 0u32..1024).prop_map(|(ch, bank, row)| {
            let row = if row % 3 == 0 { row % 8 } else { row };
            RowAddr::new(ch, 0, bank, row)
        }),
        0..800,
    )
}

fn test_config(geometry: MemGeometry, channel: u8) -> HydraConfig {
    let mut b = HydraConfig::builder(geometry, channel);
    b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
    match b.build() {
        Ok(c) => c,
        Err(e) => panic!("config: {e}"),
    }
}

fn hydra(config: HydraConfig) -> Hydra {
    match Hydra::new(config) {
        Ok(h) => h,
        Err(e) => panic!("hydra: {e}"),
    }
}

/// Replays `rows` through the concrete Hydra, the same Hydra behind the
/// `Box<T>` forwarding impl, and behind a `dyn ActivationTracker` trait
/// object, and checks all three agree.
fn assert_boxed_matches_concrete(rows: &[RowAddr]) -> Result<u64, TestCaseError> {
    let geometry = MemGeometry::tiny();
    let timing = DramTiming::ddr4_3200().with_scaled_window(1_000);
    let config = test_config(geometry, 0);

    let mut concrete_sim = ActivationSim::new(geometry, hydra(config.clone())).with_timing(timing);
    // `Box<Hydra>` goes through the same forwarding impl as the trait
    // object, and still exposes Hydra's own counters.
    let mut boxed_sim =
        ActivationSim::new(geometry, Box::new(hydra(config.clone()))).with_timing(timing);
    let dynamic: Box<dyn ActivationTracker + Send> = Box::new(hydra(config));
    let mut dyn_sim = ActivationSim::new(geometry, dynamic).with_timing(timing);

    let concrete_report = concrete_sim.run(rows.iter().copied());
    let boxed_report = boxed_sim.run(rows.iter().copied());
    let dyn_report = dyn_sim.run(rows.iter().copied());

    prop_assert_eq!(&boxed_report, &concrete_report);
    prop_assert_eq!(&dyn_report, &concrete_report);
    let concrete_mitigated = concrete_sim.drain_mitigated();
    prop_assert_eq!(boxed_sim.drain_mitigated(), concrete_mitigated.clone());
    prop_assert_eq!(dyn_sim.drain_mitigated(), concrete_mitigated);
    let stats = concrete_sim.tracker().stats();
    prop_assert_eq!(boxed_sim.tracker().stats(), stats);
    prop_assert_eq!(dyn_sim.tracker().max_spillover(), stats.group_spills);
    prop_assert_eq!(dyn_sim.tracker().name(), concrete_sim.tracker().name());
    Ok(concrete_report.mitigations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulator layer: boxed path ≡ concrete path, including the
    /// mitigated-row log and the tracker's own counters.
    #[test]
    fn boxed_sim_is_identical_to_concrete_sim(rows in stream(1)) {
        assert_boxed_matches_concrete(&rows)?;
    }

    /// Engine layer: the roster's boxed `hydra` on the sharded engine ≡ the
    /// concrete Hydra `ShardedSim`, for 2-channel streams and any worker
    /// count.
    #[test]
    fn roster_hydra_on_the_engine_matches_the_concrete_engine(
        rows in stream(2),
        workers in 1usize..5,
    ) {
        let geometry = match MemGeometry::tiny_with_channels(2) {
            Ok(g) => g,
            Err(e) => panic!("geometry: {e}"),
        };
        let timing = DramTiming::ddr4_3200().with_scaled_window(1_000);
        let window_acts = timing.max_activations_per_window();
        const T_RH: u32 = 32;

        let concrete_configs = (0..geometry.channels())
            .map(|c| match HydraConfig::for_threshold(geometry, c, T_RH) {
                Ok(c) => c,
                Err(e) => panic!("config: {e}"),
            })
            .collect();
        let concrete_sim = match ShardedSim::new(geometry, concrete_configs) {
            Ok(s) => s.with_timing(timing),
            Err(e) => panic!("concrete sim: {e}"),
        };

        let factory = move |channel| {
            build_tracker("hydra", geometry, channel, T_RH, 42, window_acts)
                .map_err(|e| e.to_string())
        };
        let roster_sim = match ShardedSim::from_factory(geometry, Box::new(factory), |_| ()) {
            Ok(s) => s.with_timing(timing),
            Err(e) => panic!("roster sim: {e}"),
        };

        let concrete = match concrete_sim.run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("concrete run: {e}"),
        };
        let roster = match roster_sim.run_parallel(&WorkerPool::new(workers), &rows) {
            Ok(m) => m,
            Err(e) => panic!("roster run: {e}"),
        };

        prop_assert_eq!(roster.report, concrete.report);
        prop_assert_eq!(roster.mitigated, concrete.mitigated);
    }
}

/// A dense deterministic hammer so the proptests above are known to cover
/// the mitigating case (an all-quiet stream would pass vacuously).
#[test]
fn dense_hammer_stays_identical_and_mitigates() {
    let rows: Vec<RowAddr> = (0..6_000u32)
        .map(|i| RowAddr::new(0, 0, (i % 3) as u8, 100 + (i % 2) * 2))
        .collect();
    let mitigations = match assert_boxed_matches_concrete(&rows) {
        Ok(m) => m,
        Err(e) => panic!("{e}"),
    };
    assert!(mitigations > 0, "dense hammer must mitigate");
}
