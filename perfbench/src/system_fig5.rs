//! `system_fig5`: the cycle-level `SystemSim` behind Fig. 5.
//!
//! gups, mcf, lbm and bc_t, each under the non-secure baseline and under
//! Hydra, on the paper's 8-core, 2-channel system at time scale [`SCALE`].
//! Each workload's instruction budget is sized so a run spans about 3.5
//! tracking windows (~350 K memory cycles): every Hydra run crosses at
//! least [`MIN_WINDOWS`] windows per channel, so Hydra's RCT traffic shows
//! in `hydra_norm_perf` (at the repository's default scale, 256 with 50 K
//! instructions, no run reaches its first window reset), and every run
//! takes a similar fraction of a second, so each cell is repeated many
//! times per run.
//!
//! The per-cycle loop (`sim::core`, `sim::controller`, `dram`) and the
//! in-loop trace generators (`workloads`) do most of the work; the tracker
//! does little. Cells are built exactly as `hydra_bench::run_workload`
//! builds them, and each run cross-checks the gups cells against
//! `run_workload` itself.

use crate::host::{peak_rss_mb, secs, timed};
use crate::report::{median, ratio, unless, Outcome};
use crate::shim::{LapClock, LapTrace, LayerClock, TimedTrace, TimedTracker};
use hydra_bench::{run_workload, scaled_hydra, ExperimentScale, TrackerKind};
use hydra_core::{Hydra, HydraStats};
use hydra_sim::{geometric_mean, SimResult, SystemSim};
use hydra_types::deadline::Stopwatch;
use hydra_types::tracker::{ActivationTracker, NullTracker};
use hydra_workloads::{registry, WorkloadSpec};
use std::cell::RefCell;
use std::rc::Rc;

/// The Fig. 5 subset (a GUPS-like random-access kernel, two SPEC memory
/// hogs and a graph kernel, spanning low to high row locality), with each
/// workload's instructions per core.
const WORKLOADS: [(&str, u64); 4] = [
    ("gups", 1_500_000),
    ("mcf", 450_000),
    ("lbm", 750_000),
    ("bc_t", 160_000),
];
/// Time-compression factor `S` (window and footprints divided by `S`).
const SCALE: u64 = 1024;
/// Tracking windows every Hydra run must cross on every channel.
const MIN_WINDOWS: u64 = 2;

/// One workload × tracker pairing and its timed runs.
struct Cell {
    spec: &'static WorkloadSpec,
    kind: TrackerKind,
    scale: ExperimentScale,
    /// The first run's result; every later run must equal it.
    reference: Option<SimResult>,
    /// Host seconds of each lap at its fastest over the runs.
    best_laps: Vec<f64>,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.kind.label())
    }

    /// Keeps each lap's fastest time; a problem when this run had a
    /// different number of laps than the first.
    fn record_laps(&mut self, laps: &[f64]) -> Option<String> {
        if self.best_laps.is_empty() {
            self.best_laps = laps.to_vec();
            return None;
        }
        if laps.len() != self.best_laps.len() {
            return Some(format!(
                "{}: {} laps, the first run had {}",
                self.label(),
                laps.len(),
                self.best_laps.len()
            ));
        }
        for (best, &lap) in self.best_laps.iter_mut().zip(laps) {
            *best = best.min(lap);
        }
        None
    }

    /// Host seconds of a run made of every lap at its fastest.
    fn best_s(&self) -> f64 {
        self.best_laps.iter().sum()
    }
}

/// Core `core`'s trace seed, as `run_workload` derives it.
fn core_seed(scale: &ExperimentScale, core: usize) -> u64 {
    scale.seed ^ (core as u64).wrapping_mul(0x9E37)
}

/// Builds a cell's simulation the way `run_workload` does, with every
/// core's trace counted on `laps`.
fn build(cell: &Cell, laps: &Rc<LapClock>) -> SystemSim {
    let scale = &cell.scale;
    let config = scale.system_config();
    let geometry = config.geometry;
    let mut trackers: Vec<Option<Box<dyn ActivationTracker>>> = (0..geometry.channels())
        .map(|ch| {
            let tracker = cell
                .kind
                .build(geometry, ch, scale)
                .expect("the Fig. 5 trackers build at the benchmark scale");
            Some(tracker)
        })
        .collect();
    SystemSim::new(config, |core| {
        let trace = cell
            .spec
            .build(geometry, scale.scale, core_seed(scale, core));
        LapTrace::new(trace, laps)
    })
    .with_trackers(|ch| {
        trackers[usize::from(ch)]
            .take()
            .expect("one tracker per channel")
    })
}

/// Clocks and tracker handles of the traced simulations.
struct Probes {
    workloads: Rc<LayerClock>,
    tracker: Rc<LayerClock>,
    hydras: Vec<Rc<RefCell<Hydra>>>,
}

/// Builds a cell's simulation with every trace generator and tracker
/// behind a timing shim. Hydra is built concretely (with the parameters
/// `TrackerKind::Hydra` uses) so its statistics can be read afterwards;
/// the traced-versus-untraced check catches any drift between the two.
fn build_traced(cell: &Cell, probes: &mut Probes) -> SystemSim {
    let scale = &cell.scale;
    let config = scale.system_config();
    let geometry = config.geometry;
    let workloads = Rc::clone(&probes.workloads);
    let sim = SystemSim::new(config, |core| {
        let trace = cell
            .spec
            .build(geometry, scale.scale, core_seed(scale, core));
        TimedTrace::new(trace, &workloads)
    });
    let tracker_clock = Rc::clone(&probes.tracker);
    let hydras = &mut probes.hydras;
    sim.with_trackers(|ch| match cell.kind {
        TrackerKind::Hydra => {
            let hydra = scaled_hydra(geometry, ch, scale, 250, 200, 32_768, 8_192, true, true)
                .expect("Hydra builds at the benchmark scale");
            let (shim, handle) = TimedTracker::new(hydra, &tracker_clock);
            hydras.push(handle);
            Box::new(shim)
        }
        _ => Box::new(TimedTracker::new(NullTracker, &tracker_clock).0),
    })
}

/// Checks one run's result; `None` when it passes.
fn check(cell: &Cell, result: &SimResult) -> Option<String> {
    let label = cell.label();
    let budget = 8 * cell.scale.instructions_per_core;
    if result.instructions < budget {
        return Some(format!(
            "{label}: retired {} of {budget} instructions",
            result.instructions
        ));
    }
    if cell.kind == TrackerKind::Hydra {
        if let Some(c) = result
            .controllers
            .iter()
            .find(|c| c.window_resets < MIN_WINDOWS)
        {
            return Some(format!(
                "{label}: a channel crossed {} tracking windows, fewer than {MIN_WINDOWS}",
                c.window_resets
            ));
        }
    }
    cell.reference.as_ref().and_then(|reference| {
        unless(reference == result, || {
            format!("{label}: result differs from the cell's first run")
        })
    })
}

/// Per-layer sums over the traced rounds.
#[derive(Default)]
struct LayerSums {
    rounds: u64,
    untraced_s: f64,
    traced_s: f64,
    cycles: u64,
    /// Trace-generator time spent while building simulations, outside
    /// `SystemSim::run`.
    setup_workloads_s: f64,
    demand_acts: u64,
    mitigation_acts: u64,
    side_acts: u64,
    window_resets: u64,
    read_latency_sum: u64,
    reads_done: u64,
    dram_acts: u64,
    dram_accesses: u64,
    bus_busy_cycles: u64,
    channel_cycles: u64,
    hydra: HydraStats,
}

/// Runs the workload for about `seconds` host seconds, in rounds of one
/// run of every cell.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut cells: Vec<Cell> = WORKLOADS
        .iter()
        .flat_map(|&(name, instructions_per_core)| {
            let spec = registry::by_name(name).expect("Fig. 5 workloads are in the registry");
            let scale = ExperimentScale {
                scale: SCALE,
                instructions_per_core,
                seed,
            };
            [TrackerKind::Baseline, TrackerKind::Hydra].map(|kind| Cell {
                spec,
                kind,
                scale,
                reference: None,
                best_laps: Vec::new(),
            })
        })
        .collect();
    let mut probes = Probes {
        workloads: LayerClock::shared(),
        tracker: LayerClock::shared(),
        hydras: Vec::new(),
    };
    let mut sums = LayerSums::default();

    // An untimed first pass gives each cell its reference result and the
    // run its peak RSS. It builds all 8 simulations before running any, so
    // no build reuses memory that a finished run freed. Built, run and
    // dropped one at a time, the cells' peak RSS flipped between ~5, 7 and
    // 9 MB with the allocator's layout.
    let built: Vec<SystemSim> = cells
        .iter()
        .map(|cell| build(cell, &LapClock::shared()))
        .collect();
    for (cell, mut sim) in cells.iter_mut().zip(built) {
        let result = sim.run();
        out.check(check(cell, &result));
        cell.reference = Some(result);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let mut setups = Vec::new();
    let clock = Stopwatch::start();
    while setups.is_empty() || secs(clock.elapsed_nanos()) < seconds {
        let mut setup_s = 0.0;
        for cell in &mut cells {
            let laps = LapClock::shared();
            let (mut sim, build_s) = timed(|| build(cell, &laps));
            setup_s += build_s;
            laps.start();
            let (result, s) = timed(|| sim.run());
            out.check(check(cell, &result).or_else(|| cell.record_laps(&laps.finish())));
            if trace {
                sums.untraced_s += s;
                run_traced(cell, &mut probes, &mut sums, &mut out);
            }
        }
        setups.push(setup_s);
        sums.rounds += 1;
    }

    // The mirror of `run_workload` above must agree with the real thing.
    for cell in cells.iter().filter(|c| c.spec.name == "gups") {
        let direct = run_workload(cell.spec, cell.kind, &cell.scale).expect("gups cells build");
        out.check(unless(
            cell.reference.as_ref() == Some(&direct.result),
            || format!("{}: differs from hydra_bench::run_workload", cell.label()),
        ));
    }

    if trace {
        set_per_layer(&mut out, &probes, &sums);
    } else {
        out.set("setup_s", median(&setups));
        set_end_to_end(&mut out, &cells);
    }
    out
}

/// Runs one cell through the timing shims and adds its layer counters.
fn run_traced(cell: &Cell, probes: &mut Probes, sums: &mut LayerSums, out: &mut Outcome) {
    probes.hydras.clear();
    let before_build = probes.workloads.secs();
    let mut sim = build_traced(cell, probes);
    sums.setup_workloads_s += probes.workloads.secs() - before_build;
    let (result, s) = timed(|| sim.run());
    out.check(unless(cell.reference.as_ref() == Some(&result), || {
        format!("{}: traced result differs from untraced", cell.label())
    }));
    sums.traced_s += s;
    sums.cycles += result.cycles;
    for (ch, c) in result.controllers.iter().enumerate() {
        sums.demand_acts += c.demand_acts;
        sums.mitigation_acts += c.mitigation_acts;
        sums.side_acts += c.side_acts;
        sums.window_resets += c.window_resets;
        sums.read_latency_sum += c.read_latency_sum;
        sums.reads_done += c.reads_done;
        let dram = sim
            .controller(u8::try_from(ch).expect("2 channels"))
            .dram()
            .stats();
        sums.dram_acts += dram.activations;
        sums.dram_accesses += dram.reads + dram.writes;
        sums.bus_busy_cycles += dram.bus_busy_cycles;
        sums.channel_cycles += result.cycles;
    }
    for hydra in &probes.hydras {
        sums.hydra.merge(&hydra.borrow().stats());
    }
}

/// Throughputs are taken at each cell's fastest laps (see `METRICS.md`):
/// the host's speed drifts by tens of percent over seconds, and the
/// fastest of many repeats of each ~10 ms lap is the steadiest estimate
/// of the program's own speed.
fn set_end_to_end(out: &mut Outcome, cells: &[Cell]) {
    fn reference(c: &Cell) -> &SimResult {
        c.reference.as_ref().expect("every cell ran")
    }
    let rate = |f: &dyn Fn(&SimResult) -> u64| {
        let rates: Vec<f64> = cells
            .iter()
            .map(|c| f(reference(c)) as f64 / c.best_s() / 1e6)
            .collect();
        geometric_mean(&rates)
    };
    out.set("sim_minstr_per_s", rate(&|r| r.instructions));
    out.set("sim_mcycles_per_s", rate(&|r| r.cycles));
    out.set("macts_per_s", rate(&|r| r.demand_acts()));
    let mut norm_perf = Vec::new();
    let mut inflation = Vec::new();
    for pair in cells.chunks(2) {
        let (base, hydra) = (reference(&pair[0]), reference(&pair[1]));
        norm_perf.push(base.cycles as f64 / hydra.cycles as f64);
        let ops = hydra.demand_acts() + hydra.mitigation_acts() + hydra.side_accesses();
        inflation.push(ops as f64 / hydra.demand_acts() as f64);
    }
    out.set("hydra_norm_perf", geometric_mean(&norm_perf));
    out.set("bw_inflation", geometric_mean(&inflation));
}

fn set_per_layer(out: &mut Outcome, probes: &Probes, sums: &LayerSums) {
    let per_round = |v: f64| v / sums.rounds as f64;
    let workloads_s = probes.workloads.secs();
    let tracker_s = probes.tracker.secs();
    out.set("workloads.ops", per_round(probes.workloads.calls() as f64));
    out.set("workloads.self_s", per_round(workloads_s));
    out.set("workloads.ns_per_op", probes.workloads.ns_per_call());
    out.set(
        "workloads.setup_share",
        ratio(sums.setup_workloads_s, workloads_s),
    );
    out.set("tracker.calls", per_round(probes.tracker.calls() as f64));
    out.set("tracker.self_s", per_round(tracker_s));
    out.set("tracker.ns_per_call", probes.tracker.ns_per_call());
    out.set("tracker.share", ratio(tracker_s, sums.traced_s));
    let h = &sums.hydra;
    out.set("hydra.gct_filter_rate", h.gct_only_fraction());
    out.set("hydra.rcc_hit_rate", h.rcc_hit_fraction());
    out.set("hydra.rct_accesses", per_round(h.rct_accesses as f64));
    out.set("hydra.group_spills", per_round(h.group_spills as f64));
    out.set("hydra.mitigations", per_round(h.mitigations as f64));
    out.set("hydra.window_resets", per_round(h.window_resets as f64));
    let loop_s = sums.traced_s - (workloads_s - sums.setup_workloads_s) - tracker_s;
    out.set("sim.loop_self_s", per_round(loop_s));
    out.set(
        "sim.ns_per_mem_cycle",
        ratio(loop_s * 1e9, sums.cycles as f64),
    );
    out.set("controller.demand_acts", per_round(sums.demand_acts as f64));
    out.set(
        "controller.mitigation_acts",
        per_round(sums.mitigation_acts as f64),
    );
    out.set("controller.side_acts", per_round(sums.side_acts as f64));
    out.set(
        "controller.window_resets",
        per_round(sums.window_resets as f64),
    );
    out.set(
        "controller.avg_read_latency_cycles",
        ratio(sums.read_latency_sum as f64, sums.reads_done as f64),
    );
    out.set("dram.activations", per_round(sums.dram_acts as f64));
    out.set(
        "dram.row_hit_rate",
        1.0 - ratio(sums.dram_acts as f64, sums.dram_accesses as f64).min(1.0),
    );
    out.set(
        "dram.bus_busy_frac",
        ratio(sums.bus_busy_cycles as f64, sums.channel_cycles as f64),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(sums.traced_s - sums.untraced_s, sums.untraced_s),
    );
    out.set("trace.timed_s", per_round(sums.traced_s));
}
