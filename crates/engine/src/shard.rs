//! Sharded multi-channel simulation with a deterministic merge.
//!
//! Hydra's tracker lives per memory controller: the paper's baseline runs
//! one instance per channel and its SRAM structures "are evenly divided
//! across the two channels" (Sec. 6). That makes the channel a natural
//! shard boundary — no tracker state is shared across channels, and the
//! activation simulator advances its clock per *shard-local* activation, so
//! replaying channel `c`'s substream through channel `c`'s instance is the
//! same computation whether the other channels run before, after, or
//! concurrently.
//!
//! [`ShardedSim`] exploits exactly that: it partitions a system-wide
//! activation stream by channel (preserving each channel's arrival order),
//! builds one independent tracker per shard from a per-channel factory,
//! runs the shards in parallel on a [`WorkerPool`](crate::pool::WorkerPool)
//! or sequentially as the reference, and merges per-shard results with
//! order-insensitive reductions: counter sums for the tracker's
//! [`ShardStats`] and the [`ActivationSimReport`], and a *sorted* union
//! for the mitigated-row set. The merged result is therefore bit-identical
//! between the parallel and sequential paths, which
//! `crates/engine/tests/shard_determinism.rs` proves by proptest.
//!
//! The simulator is generic over the tracker. A stats hook reads each
//! shard tracker's counters when its run ends: [`ShardedSim::new`] builds
//! Hydra shards from per-channel configs and collects [`HydraStats`];
//! [`ShardedSim::from_factory`] takes any factory, such as the arena
//! roster's boxed trackers with a `()` hook.

use crate::pool::{CellOutcome, WorkerPool};
use crate::EngineError;
use hydra_core::{Hydra, HydraConfig, HydraStats};
use hydra_dram::DramTiming;
use hydra_sim::{ActivationSim, ActivationSimReport};
use hydra_types::addr::RowAddr;
use hydra_types::geometry::MemGeometry;
use hydra_types::tracker::ActivationTracker;

/// Tracker counters a shard reports, folded across shards by
/// [`merge_shards`]. The fold must be commutative and associative so the
/// merged counters do not depend on shard completion order.
pub trait ShardStats: Default {
    /// Adds `other`'s counters into `self`.
    fn merge(&mut self, other: &Self);
}

impl ShardStats for HydraStats {
    fn merge(&mut self, other: &Self) {
        HydraStats::merge(self, other);
    }
}

/// Trackers without a stats surface report nothing beyond the simulator's
/// report.
impl ShardStats for () {
    fn merge(&mut self, _other: &Self) {}
}

/// The outcome of one channel shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult<S = HydraStats> {
    /// The channel this shard covered.
    pub channel: u8,
    /// Demand activations routed to this shard.
    pub shard_acts: u64,
    /// The shard tracker's cumulative counters, read by the stats hook.
    pub stats: S,
    /// The shard simulator's report.
    pub report: ActivationSimReport,
    /// Rows mitigated in this shard, in mitigation order.
    pub mitigated: Vec<RowAddr>,
}

/// A full multi-channel run after the deterministic merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRun<S = HydraStats> {
    /// Per-shard results, ordered by channel.
    pub shards: Vec<ShardResult<S>>,
    /// System-wide tracker counters (order-insensitive sum over shards).
    pub stats: S,
    /// System-wide simulator counters (order-insensitive sum over shards).
    pub report: ActivationSimReport,
    /// Every mitigated row across all shards, sorted (deduplication is the
    /// caller's choice; repeats preserve mitigation multiplicity).
    pub mitigated: Vec<RowAddr>,
}

/// Builds channel `c`'s tracker. Called once per shard run, on whichever
/// thread runs that shard, so trackers never cross threads — only the
/// factory and the results do.
pub type ShardFactory<T> = Box<dyn Fn(u8) -> Result<T, String> + Send + Sync>;

/// A multi-channel simulation sharded by channel, with one `T` tracker per
/// channel and `S` counters collected from each.
pub struct ShardedSim<T = Hydra, S = HydraStats> {
    geometry: MemGeometry,
    factory: ShardFactory<T>,
    stats: fn(&T) -> S,
    timing: DramTiming,
}

impl ShardedSim {
    /// Builds a sharded Hydra simulator from one tracker config per
    /// channel. `configs[c]` must cover channel `c` of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the config count does not match the
    /// channel count, a config's channel or geometry disagrees with its
    /// slot, or a config cannot instantiate a tracker.
    pub fn new(geometry: MemGeometry, configs: Vec<HydraConfig>) -> Result<Self, EngineError> {
        if configs.len() != usize::from(geometry.channels()) {
            return Err(EngineError::new(format!(
                "expected one config per channel ({}), got {}",
                geometry.channels(),
                configs.len()
            )));
        }
        for (slot, config) in configs.iter().enumerate() {
            if usize::from(config.channel) != slot {
                return Err(EngineError::new(format!(
                    "config in slot {slot} covers channel {}",
                    config.channel
                )));
            }
            if config.geometry != geometry {
                return Err(EngineError::new(format!(
                    "config for channel {slot} built for a different geometry"
                )));
            }
        }
        let factory = move |channel: u8| {
            Hydra::new(configs[usize::from(channel)].clone()).map_err(|e| e.to_string())
        };
        ShardedSim::from_factory(geometry, Box::new(factory), Hydra::stats)
    }
}

impl<T: ActivationTracker, S: ShardStats + Send> ShardedSim<T, S> {
    /// Builds a sharded simulator that runs `factory(c)` on channel `c` and
    /// reads each shard tracker's counters with `stats` when its run ends.
    /// Every channel's tracker is built once up front, so an invalid
    /// configuration surfaces here rather than mid-run on a worker.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the factory rejects any channel.
    pub fn from_factory(
        geometry: MemGeometry,
        factory: ShardFactory<T>,
        stats: fn(&T) -> S,
    ) -> Result<Self, EngineError> {
        for channel in 0..geometry.channels() {
            factory(channel)
                .map_err(|e| EngineError::new(format!("channel {channel} config rejected: {e}")))?;
        }
        Ok(ShardedSim {
            geometry,
            factory,
            stats,
            timing: DramTiming::ddr4_3200(),
        })
    }

    /// Overrides the DRAM timing used by every shard (e.g. a scaled window).
    pub fn with_timing(mut self, timing: DramTiming) -> Self {
        self.timing = timing;
        self
    }

    /// The simulated geometry.
    pub fn geometry(&self) -> MemGeometry {
        self.geometry
    }

    /// Runs every shard on the pool and merges. The merge is deterministic:
    /// the result is bit-identical to [`run_sequential`](Self::run_sequential)
    /// on the same stream regardless of worker count or completion order,
    /// provided the factory builds deterministic trackers (probabilistic
    /// ones take their seed at construction).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a row names a channel the geometry does
    /// not have, or if any shard fails, panics or is skipped; partial
    /// results are discarded (a merged run with a missing channel would
    /// silently under-count).
    pub fn run_parallel(
        &self,
        pool: &WorkerPool,
        rows: &[RowAddr],
    ) -> Result<MergedRun<S>, EngineError> {
        let items: Vec<(u8, Vec<RowAddr>)> = (0..)
            .zip(partition_by_channel(self.geometry.channels(), rows)?)
            .collect();
        let outcomes = pool.run_ordered(items, |_, (channel, sub)| self.run_shard(channel, &sub));
        let mut results = Vec::with_capacity(outcomes.len());
        for (channel, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                CellOutcome::Done(Ok(result)) => results.push(result),
                CellOutcome::Done(Err(e)) => {
                    return Err(EngineError::new(format!("shard {channel} failed: {e}")));
                }
                CellOutcome::Panicked(msg) => {
                    return Err(EngineError::new(format!("shard {channel} panicked: {msg}")));
                }
                CellOutcome::Skipped => {
                    return Err(EngineError::new(format!("shard {channel} never ran")));
                }
            }
        }
        Ok(merge_shards(results))
    }

    /// The sequential reference: runs each shard one at a time, in channel
    /// order, on the calling thread, then merges identically to
    /// [`run_parallel`](Self::run_parallel).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a row names a channel the geometry does
    /// not have, or if a shard's tracker cannot be built.
    pub fn run_sequential(&self, rows: &[RowAddr]) -> Result<MergedRun<S>, EngineError> {
        let shards = partition_by_channel(self.geometry.channels(), rows)?;
        let mut results = Vec::with_capacity(shards.len());
        for (channel, sub) in (0..).zip(shards) {
            results.push(
                self.run_shard(channel, &sub)
                    .map_err(|e| EngineError::new(format!("shard {channel} failed: {e}")))?,
            );
        }
        Ok(merge_shards(results))
    }

    /// Replays one channel's substream through a freshly built tracker.
    fn run_shard(&self, channel: u8, rows: &[RowAddr]) -> Result<ShardResult<S>, String> {
        let tracker = (self.factory)(channel)?;
        let mut sim = ActivationSim::new(self.geometry, tracker).with_timing(self.timing);
        let report = sim.run(rows.iter().copied());
        let mitigated = sim.drain_mitigated();
        Ok(ShardResult {
            channel,
            shard_acts: rows.len() as u64,
            stats: (self.stats)(sim.tracker()),
            report,
            mitigated,
        })
    }
}

/// Splits `rows` into per-channel substreams, preserving arrival order
/// within each channel.
///
/// # Errors
///
/// Returns [`EngineError`] for a row whose channel is not below
/// `channels`: routing it anywhere would count it against another
/// channel's row of the same rank, bank and index.
pub fn partition_by_channel(
    channels: u8,
    rows: &[RowAddr],
) -> Result<Vec<Vec<RowAddr>>, EngineError> {
    let mut shards: Vec<Vec<RowAddr>> = (0..channels).map(|_| Vec::new()).collect();
    for (i, row) in rows.iter().enumerate() {
        let shard = shards.get_mut(usize::from(row.channel)).ok_or_else(|| {
            EngineError::new(format!(
                "row {i} names channel {} of a {channels}-channel geometry",
                row.channel
            ))
        })?;
        shard.push(*row);
    }
    Ok(shards)
}

/// Merges shard results with order-insensitive reductions: shards are
/// reordered by channel, counters are summed (u64 addition is commutative
/// and associative), and the union of mitigated rows is sorted. Feeding the
/// same shard set in any order produces a bit-identical [`MergedRun`].
pub fn merge_shards<S: ShardStats>(mut shards: Vec<ShardResult<S>>) -> MergedRun<S> {
    shards.sort_by_key(|s| s.channel);
    let mut stats = S::default();
    let mut report = ActivationSimReport::default();
    let mut mitigated = Vec::new();
    for shard in &shards {
        stats.merge(&shard.stats);
        report.merge(&shard.report);
        mitigated.extend_from_slice(&shard.mitigated);
    }
    mitigated.sort_unstable();
    MergedRun {
        shards,
        stats,
        report,
        mitigated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny2() -> MemGeometry {
        match MemGeometry::tiny_with_channels(2) {
            Ok(g) => g,
            Err(e) => panic!("tiny 2-channel geometry: {e}"),
        }
    }

    fn sharded(geometry: MemGeometry) -> ShardedSim {
        let configs = (0..geometry.channels())
            .map(|c| {
                let mut b = HydraConfig::builder(geometry, c);
                b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
                match b.build() {
                    Ok(c) => c,
                    Err(e) => panic!("config: {e}"),
                }
            })
            .collect();
        match ShardedSim::new(geometry, configs) {
            Ok(s) => s,
            Err(e) => panic!("sharded sim: {e}"),
        }
    }

    fn interleaved_hammer(geometry: MemGeometry, acts: u64) -> Vec<RowAddr> {
        (0..acts)
            .map(|i| {
                let channel = (i % u64::from(geometry.channels())) as u8;
                RowAddr::new(channel, 0, (i % 3) as u8, 100 + (i % 2) as u32 * 2)
            })
            .collect()
    }

    #[test]
    fn rejects_wrong_config_count() {
        let geometry = tiny2();
        let config = match HydraConfig::builder(geometry, 0)
            .thresholds(16, 12)
            .gct_entries(64)
            .build()
        {
            Ok(c) => c,
            Err(e) => panic!("config: {e}"),
        };
        assert!(ShardedSim::new(geometry, vec![config]).is_err());
    }

    #[test]
    fn rejects_misplaced_channel_config() {
        let geometry = tiny2();
        let mk = |ch| {
            let mut b = HydraConfig::builder(geometry, ch);
            b.thresholds(16, 12).gct_entries(64);
            b.build()
        };
        let (c0, c1) = match (mk(0), mk(1)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => panic!("configs"),
        };
        assert!(ShardedSim::new(geometry, vec![c1, c0]).is_err());
    }

    #[test]
    fn partition_preserves_per_channel_order() {
        let rows = vec![
            RowAddr::new(1, 0, 0, 5),
            RowAddr::new(0, 0, 0, 1),
            RowAddr::new(1, 0, 0, 6),
            RowAddr::new(0, 0, 0, 2),
        ];
        let shards = match partition_by_channel(2, &rows) {
            Ok(s) => s,
            Err(e) => panic!("partition: {e}"),
        };
        assert_eq!(
            shards[0],
            vec![RowAddr::new(0, 0, 0, 1), RowAddr::new(0, 0, 0, 2)]
        );
        assert_eq!(
            shards[1],
            vec![RowAddr::new(1, 0, 0, 5), RowAddr::new(1, 0, 0, 6)]
        );
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 6000);
        let pool = WorkerPool::new(4);
        let (par, seq) = match (sim.run_parallel(&pool, &rows), sim.run_sequential(&rows)) {
            (Ok(p), Ok(s)) => (p, s),
            other => panic!("run failed: {other:?}"),
        };
        assert_eq!(par, seq);
        assert!(par.stats.mitigations > 0, "hammer must trigger mitigations");
    }

    #[test]
    fn merge_is_order_insensitive() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 4000);
        let seq = match sim.run_sequential(&rows) {
            Ok(s) => s,
            Err(e) => panic!("sequential run: {e}"),
        };
        let mut reversed = seq.shards.clone();
        reversed.reverse();
        assert_eq!(merge_shards(reversed), seq);
    }

    #[test]
    fn merged_totals_cover_every_shard() {
        let geometry = tiny2();
        let sim = sharded(geometry);
        let rows = interleaved_hammer(geometry, 4000);
        let merged = match sim.run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("sequential run: {e}"),
        };
        let shard_acts: u64 = merged.shards.iter().map(|s| s.shard_acts).sum();
        assert_eq!(shard_acts, rows.len() as u64);
        let shard_mitigations: u64 = merged.shards.iter().map(|s| s.report.mitigations).sum();
        assert_eq!(merged.report.mitigations, shard_mitigations);
        let mut sorted = merged.mitigated.clone();
        sorted.sort_unstable();
        assert_eq!(merged.mitigated, sorted, "mitigated set is sorted");
    }

    /// The per-channel Hydra of [`sharded`], boxed behind the trait object
    /// the arena roster hands out, with no stats hook.
    fn boxed_hydra(geometry: MemGeometry) -> ShardedSim<Box<dyn ActivationTracker + Send>, ()> {
        let factory = move |channel| {
            let mut b = HydraConfig::builder(geometry, channel);
            b.thresholds(16, 12).gct_entries(64).rcc_entries(32);
            let config = b.build().map_err(|e| e.to_string())?;
            let tracker = Hydra::new(config).map_err(|e| e.to_string())?;
            Ok(Box::new(tracker) as Box<dyn ActivationTracker + Send>)
        };
        match ShardedSim::from_factory(geometry, Box::new(factory), |_| ()) {
            Ok(s) => s,
            Err(e) => panic!("boxed sim: {e}"),
        }
    }

    #[test]
    fn boxed_trackers_match_the_concrete_hydra_path() {
        let geometry = tiny2();
        let rows = interleaved_hammer(geometry, 6000);
        let concrete = match sharded(geometry).run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("concrete run: {e}"),
        };
        let boxed = match boxed_hydra(geometry).run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("boxed run: {e}"),
        };
        assert_eq!(boxed.report, concrete.report);
        assert_eq!(boxed.mitigated, concrete.mitigated);
        assert!(boxed.report.mitigations > 0, "non-vacuous comparison");
    }

    #[test]
    fn boxed_parallel_matches_boxed_sequential() {
        let geometry = tiny2();
        let rows = interleaved_hammer(geometry, 6000);
        let sim = boxed_hydra(geometry);
        let par = match sim.run_parallel(&WorkerPool::new(4), &rows) {
            Ok(m) => m,
            Err(e) => panic!("parallel run: {e}"),
        };
        let seq = match sim.run_sequential(&rows) {
            Ok(m) => m,
            Err(e) => panic!("sequential run: {e}"),
        };
        assert_eq!(par, seq);
    }

    #[test]
    fn factory_rejection_surfaces_at_construction() {
        let geometry = tiny2();
        let factory =
            |channel| -> Result<Hydra, String> { Err(format!("channel {channel} refused")) };
        match ShardedSim::from_factory(geometry, Box::new(factory), Hydra::stats) {
            Err(e) => assert!(e.to_string().contains("channel 0 refused"), "{e}"),
            Ok(_) => panic!("a refusing factory must be rejected"),
        }
    }

    #[test]
    fn rows_beyond_the_geometrys_channels_are_rejected() {
        // Channel 3 of a 2-channel geometry must not alias onto channel 1's
        // tracker (3 % 2), where it would count against channel 1's row of
        // the same rank, bank and index.
        let geometry = tiny2();
        let sim = sharded(geometry);
        let mut rows = interleaved_hammer(geometry, 100);
        rows.push(RowAddr::new(3, 0, 1, 102));
        let expect_rejected = |result: Result<MergedRun, EngineError>| match result {
            Err(e) => assert!(e.to_string().contains("channel 3"), "{e}"),
            Ok(run) => panic!("out-of-range channel accepted: {:?}", run.report),
        };
        expect_rejected(sim.run_sequential(&rows));
        expect_rejected(sim.run_parallel(&WorkerPool::new(2), &rows));
        assert!(partition_by_channel(2, &rows).is_err());
        // The in-range prefix still runs.
        assert!(sim.run_sequential(&rows[..100]).is_ok());
    }
}
