//! `hydra_stream`: Hydra alone, fed pre-generated activation streams.
//!
//! A concrete `hydra_core::Hydra` at the paper's default design point
//! (one channel of the paper geometry) inside `sim::fastsim::ActivationSim`.
//! The streams are two benign workloads (gups, mcf) and two attacks
//! (many-sided, half-double). With the tracking window divided by
//! [`WINDOW_SCALE`], every Hydra phase fires: the benign streams split
//! between GCT-only and RCC hits with tens of thousands of RCT accesses,
//! and the attacks hit the RCC almost always.
//!
//! Stream generation happens in set-up and the cycle loop is not used, so
//! the tracker does almost all of the timed work: the opposite split from
//! `system_fig5`.

use crate::host::{secs, timed};
use crate::report::{median, ratio, unless, Outcome};
use crate::shim::{LayerClock, TimedTrace, TimedTracker};
use hydra_core::{Hydra, HydraStats};
use hydra_dram::DramTiming;
use hydra_sim::{ActivationSim, ActivationSimReport, ShadowOracle};
use hydra_types::addr::RowAddr;
use hydra_types::deadline::Stopwatch;
use hydra_types::geometry::MemGeometry;
use hydra_types::tracker::ActivationTracker;
use hydra_workloads::trace::TraceSource;
use hydra_workloads::{registry, AttackPattern};
use std::rc::Rc;

/// The streams, replayed round-robin.
const STREAMS: [&str; 4] = ["gups", "mcf", "many_sided", "half_double"];
/// Demand activations per stream.
const ACTS: usize = 1_000_000;
/// Footprint scale passed to the benign generators (the arena's value).
const WORKLOAD_SCALE: u64 = 256;
/// Tracking-window compression: long enough windows that benign rows
/// reach the RCT, short enough that a stream crosses many windows.
const WINDOW_SCALE: u64 = 16;
/// Row-Hammer threshold the default Hydra (T_H = 250) is provisioned for;
/// the shadow oracle checks against it.
const T_RH: u32 = 500;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// One pre-generated stream.
#[derive(PartialEq, Eq)]
struct Stream {
    name: &'static str,
    rows: Vec<RowAddr>,
    /// Instructions the source trace retires over these activations (the
    /// sum of its operations' gaps).
    instructions: u64,
}

/// What one replay of a stream produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Replay {
    report: ActivationSimReport,
    stats: HydraStats,
    cycles: u64,
}

/// A seed-dependent victim row in the middle half of a bank of channel 0.
fn victim(geometry: MemGeometry, seed: u64) -> RowAddr {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let rows = geometry.rows_per_bank();
    let bank = (mix >> 8) % u64::from(geometry.banks_per_rank());
    let offset = (mix >> 24) % u64::from(rows / 2);
    RowAddr::new(
        0,
        0,
        u8::try_from(bank).expect("bank fits u8"),
        rows / 4 + u32::try_from(offset).expect("offset fits u32"),
    )
}

/// The first [`ACTS`] operations of `source`, pinned to channel 0.
fn drain<T: TraceSource>(name: &'static str, geometry: MemGeometry, mut source: T) -> Stream {
    let mut instructions = 0;
    let rows = (0..ACTS)
        .map(|_| {
            let op = source.next_op();
            instructions += u64::from(op.gap);
            let mut row = geometry.row_of_line(op.addr);
            row.channel = 0;
            row
        })
        .collect();
    Stream {
        name,
        rows,
        instructions,
    }
}

/// Generates every stream, timing the generators through `clock` if given.
fn generate(geometry: MemGeometry, seed: u64, clock: Option<&Rc<LayerClock>>) -> Vec<Stream> {
    STREAMS
        .iter()
        .map(|&name| {
            let pattern = match name {
                "many_sided" => Some(AttackPattern::ManySided {
                    first: victim(geometry, seed),
                    n: 16,
                }),
                "half_double" => Some(AttackPattern::HalfDouble {
                    victim: victim(geometry, seed),
                    ratio: 8,
                }),
                _ => None,
            };
            match (pattern, clock) {
                (Some(p), None) => drain(name, geometry, p.trace(geometry)),
                (Some(p), Some(c)) => drain(name, geometry, TimedTrace::new(p.trace(geometry), c)),
                (None, clock) => {
                    let spec = registry::by_name(name).expect("benign streams are in the registry");
                    let trace = spec.build(geometry, WORKLOAD_SCALE, seed);
                    match clock {
                        None => drain(name, geometry, trace),
                        Some(c) => drain(name, geometry, TimedTrace::new(trace, c)),
                    }
                }
            }
        })
        .collect()
}

fn hydra(geometry: MemGeometry) -> Hydra {
    Hydra::isca22_default(geometry, 0).expect("the default Hydra builds for the paper geometry")
}

fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE)
}

/// Replays `stream` through `tracker`; returns the report, the simulated
/// cycles, the host seconds of the replay alone, and the tracker.
fn replay<T: ActivationTracker>(
    geometry: MemGeometry,
    tracker: T,
    stream: &Stream,
) -> (ActivationSimReport, u64, f64, T) {
    let mut sim = ActivationSim::new(geometry, tracker).with_timing(timing());
    let (report, s) = timed(|| sim.run(stream.rows.iter().copied()));
    let cycles = sim.now();
    (report, cycles, s, sim.into_tracker())
}

/// Runs the workload for about `seconds` host seconds.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let geometry = MemGeometry::isca22_baseline();
    let mut out = Outcome::default();

    let (streams, first_setup) = timed(|| generate(geometry, seed, None));
    let mut setups = vec![first_setup];

    let workloads = LayerClock::shared();
    if trace {
        let traced = generate(geometry, seed, Some(&workloads));
        out.check(unless(traced == streams, || {
            "streams generated through the timing shim differ".to_string()
        }));
    }
    let setup_workloads_s = workloads.secs();

    let clock = Stopwatch::start();
    let tracker = LayerClock::shared();
    let mut references: Vec<Option<Replay>> = vec![None; streams.len()];
    let mut best_s = vec![f64::INFINITY; streams.len()];
    let mut untraced_s = 0.0;
    let (mut rounds, mut traced_s) = (0u64, 0.0);
    while rounds == 0 || secs(clock.elapsed_nanos()) < seconds {
        // Repeat the set-up at even intervals through the run, so its
        // median samples the host over the same span as the replays.
        let elapsed = secs(clock.elapsed_nanos());
        if setups.len() < SETUP_REPEATS
            && elapsed >= seconds * setups.len() as f64 / SETUP_REPEATS as f64
        {
            let (again, t) = timed(|| generate(geometry, seed, None));
            out.check(unless(again == streams, || {
                "regenerated streams differ from the first set-up".to_string()
            }));
            setups.push(t);
        }
        for (i, stream) in streams.iter().enumerate() {
            let (report, cycles, s, tracked) = replay(geometry, hydra(geometry), stream);
            let result = Replay {
                report,
                stats: tracked.stats(),
                cycles,
            };
            let first = references[i].get_or_insert(result);
            out.check(unless(*first == result, || {
                format!(
                    "{}: replay differs from the stream's first replay",
                    stream.name
                )
            }));
            best_s[i] = best_s[i].min(s);
            untraced_s += s;
            if trace {
                let (shim, handle) = TimedTracker::new(hydra(geometry), &tracker);
                let (report, cycles, s, _) = replay(geometry, shim, stream);
                let traced = Replay {
                    report,
                    stats: handle.borrow().stats(),
                    cycles,
                };
                out.check(unless(traced == result, || {
                    format!("{}: traced replay differs from untraced", stream.name)
                }));
                traced_s += s;
            }
        }
        rounds += 1;
    }
    let references: Vec<Replay> = references.into_iter().flatten().collect();

    // One untimed pass of each stream under the shadow oracle: Hydra must
    // let no row exceed T_RH, and the oracle must not change the replay.
    for (stream, reference) in streams.iter().zip(&references) {
        let oracle = ShadowOracle::new(hydra(geometry), T_RH);
        let (report, _, _, oracle) = replay(geometry, oracle, stream);
        let violations = oracle.report().violations_total;
        out.check(unless(
            violations == 0 && report == reference.report,
            || {
                format!(
                    "{}: {violations} shadow-oracle violations, report {}",
                    stream.name,
                    if report == reference.report {
                        "unchanged"
                    } else {
                        "changed"
                    }
                )
            },
        ));
    }

    let mut merged = ActivationSimReport::default();
    let mut stats = HydraStats::default();
    for r in &references {
        merged.merge(&r.report);
        stats.merge(&r.stats);
    }
    if trace {
        let per_round = |v: f64| v / rounds as f64;
        out.set("workloads.ops", workloads.calls() as f64);
        out.set("workloads.self_s", workloads.secs());
        out.set("workloads.ns_per_op", workloads.ns_per_call());
        out.set(
            "workloads.setup_share",
            ratio(setup_workloads_s, workloads.secs()),
        );
        out.set("tracker.calls", per_round(tracker.calls() as f64));
        out.set("tracker.self_s", per_round(tracker.secs()));
        out.set("tracker.ns_per_call", tracker.ns_per_call());
        out.set("tracker.share", ratio(tracker.secs(), traced_s));
        out.set("hydra.gct_filter_rate", stats.gct_only_fraction());
        out.set("hydra.rcc_hit_rate", stats.rcc_hit_fraction());
        out.set("hydra.rct_accesses", stats.rct_accesses as f64);
        out.set("hydra.group_spills", stats.group_spills as f64);
        out.set("hydra.mitigations", stats.mitigations as f64);
        out.set("hydra.window_resets", stats.window_resets as f64);
        out.set("fastsim.self_s", per_round(traced_s - tracker.secs()));
        out.set(
            "trace.overhead_pct",
            100.0 * ratio(traced_s - untraced_s, untraced_s),
        );
        out.set("trace.timed_s", per_round(traced_s));
    } else {
        out.set("setup_s", median(&setups));
        // One round at each stream's fastest replay (see `METRICS.md`).
        let round_s: f64 = best_s.iter().sum();
        let rate = |n: u64| n as f64 / round_s / 1e6;
        out.set("macts_per_s", rate(merged.demand_acts));
        out.set(
            "sim_mcycles_per_s",
            rate(references.iter().map(|r| r.cycles).sum()),
        );
        out.set(
            "sim_minstr_per_s",
            rate(streams.iter().map(|s| s.instructions).sum()),
        );
        out.set("bw_inflation", merged.bandwidth_inflation());
        out.set("hydra_norm_perf", 1.0 / merged.bandwidth_inflation());
    }
    out
}
