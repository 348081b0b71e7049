//! `arena_race`: the full cross-tracker arena under the shadow oracle.
//!
//! `hydra_arena::run_arena` on `ArenaGrid::full()` with one job: 9 roster
//! trackers × T_RH {4800, 1000, 500} × gups plus 5 attacks = 162 cells of
//! 50 K activations, each checked by `ShadowOracle`. It drives the
//! tracker layer through 8 trackers besides Hydra, the arena adapter, the
//! oracle and the batch harness; each cell also regenerates its stream.
//!
//! The traced run repeats every cell outside the harness, from the same
//! public pieces (`ArenaCell::rows`, `build_tracker`, `ArenaAdapter`,
//! `ShadowOracle`, `ActivationSim`), with a timing shim between the oracle
//! and the adapter, and checks it reproduces the harness's rows.

use crate::host::{secs, timed};
use crate::report::{median, ratio, unless, Outcome};
use crate::shim::{LayerClock, TimedTracker};
use hydra_arena::leaderboard::ArenaCell;
use hydra_arena::{build_tracker, roster_names, run_arena, ArenaAdapter, ArenaGrid, ArenaOutcome};
use hydra_dram::DramTiming;
use hydra_sim::{geometric_mean, ActivationSim, BatchConfig, ShadowOracle};
use hydra_types::deadline::Stopwatch;
use hydra_workloads::{registry, TraceSource};

/// The arena's window compression (`leaderboard::WINDOW_SCALE`); a drift
/// shows as a traced-versus-untraced mismatch.
const WINDOW_SCALE: u64 = 1000;
/// The paper's ultra-low threshold, where the Fig. 5 shape must hold.
const FIG5_T_RH: u32 = 500;

fn grid(seed: u64) -> ArenaGrid {
    ArenaGrid {
        seed,
        ..ArenaGrid::full()
    }
}

fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(WINDOW_SCALE)
}

/// Set-up: expand the grid and provision every cell's tracker, the
/// configuration work each cell starts with.
fn set_up(grid: &ArenaGrid) -> Vec<ArenaCell> {
    let window_acts = timing().max_activations_per_window();
    let cells = grid.cells().expect("the full arena grid is valid");
    for cell in &cells {
        let tracker = build_tracker(
            &cell.tracker,
            cell.geometry,
            0,
            cell.t_rh,
            cell.seed,
            window_acts,
        )
        .expect("every roster tracker builds on the full grid");
        drop(tracker);
    }
    cells
}

/// Instructions one race's streams represent: the gap sum of each registry
/// workload's first `acts` operations, and one instruction per attack
/// activation (the attack traces' gap).
fn race_instructions(cells: &[ArenaCell]) -> u64 {
    cells
        .iter()
        .map(|cell| match registry::by_name(&cell.workload) {
            Some(spec) => {
                let mut trace = spec.build(cell.geometry, 256, cell.seed);
                (0..cell.acts).map(|_| u64::from(trace.next_op().gap)).sum()
            }
            None => cell.acts,
        })
        .sum()
}

/// Checks one race against the first; every cell is one attempted unit,
/// plus one for the grid-level Fig. 5 and oracle summary.
fn check(race: &ArenaOutcome, cells: usize, first: &[String], out: &mut Outcome) {
    let lines = race.deterministic_lines();
    for failure in &race.failures {
        out.check(Some(format!("arena cell failed: {failure}")));
    }
    for (i, row) in race.rows.iter().enumerate() {
        let label = format!("{}/{}/trh{}", row.tracker, row.workload, row.t_rh);
        out.check(if row.oracle_violations > 0 {
            Some(format!(
                "{label}: {} shadow-oracle violations",
                row.oracle_violations
            ))
        } else {
            unless(lines.get(i + 1) == first.get(i + 1), || {
                format!("{label}: row differs from the first race")
            })
        });
    }
    out.check(unless(
        race.rows.len() == cells && race.fig5_ok_at(FIG5_T_RH) && lines == first,
        || {
            format!(
                "race summary: {} of {cells} rows, fig5_ok_at({FIG5_T_RH}) = {}",
                race.rows.len(),
                race.fig5_ok_at(FIG5_T_RH)
            )
        },
    ));
}

/// Per-layer sums over the traced races.
#[derive(Default)]
struct LayerSums {
    rounds: u64,
    untraced_s: f64,
    traced_s: f64,
    fastsim_s: f64,
    harness_s: f64,
    /// Per roster tracker: summed cell seconds and demand activations.
    per_tracker: Vec<(f64, u64)>,
}

/// Repeats every cell of `race` outside the harness with the timing shims
/// and checks each reproduces the harness's row.
fn run_traced(
    cells: &[ArenaCell],
    race: &ArenaOutcome,
    workloads: &LayerClock,
    tracker: &std::rc::Rc<LayerClock>,
    sums: &mut LayerSums,
    out: &mut Outcome,
) {
    let window_acts = timing().max_activations_per_window();
    let sw = Stopwatch::start();
    for (cell, row) in cells.iter().zip(&race.rows) {
        let rows = workloads.time_ops(cell.acts, || cell.rows());
        let rows = rows.expect("arena workloads resolve");
        let inner = build_tracker(
            &cell.tracker,
            cell.geometry,
            0,
            cell.t_rh,
            cell.seed,
            window_acts,
        )
        .expect("every roster tracker builds on the full grid");
        let (shim, _) = TimedTracker::new(ArenaAdapter::new(inner), tracker);
        let oracle = ShadowOracle::new(shim, cell.t_rh);
        let mut sim = ActivationSim::new(cell.geometry, oracle).with_timing(timing());
        let (report, s) = timed(|| sim.run(rows));
        sums.fastsim_s += s;
        let oracle = sim.into_tracker().report();
        let same = (
            report.demand_acts,
            report.mitigation_acts,
            report.side_reads,
            report.side_writes,
            report.mitigations,
            report.window_resets,
            oracle.violations_total,
            oracle.worst_unmitigated,
        ) == (
            row.demand_acts,
            row.mitigation_acts,
            row.side_reads,
            row.side_writes,
            row.mitigations,
            row.window_resets,
            row.oracle_violations,
            row.worst_unmitigated,
        );
        out.check(unless(same && cell.tracker == row.tracker, || {
            format!("{}: traced cell differs from the harness row", cell.label())
        }));
    }
    sums.traced_s += secs(sw.elapsed_nanos());
}

/// Runs the workload for about `seconds` host seconds, in rounds of one
/// set-up and one race.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let grid = grid(seed);
    let mut out = Outcome::default();
    let cells = set_up(&grid);
    let instructions = race_instructions(&cells);

    let workloads = LayerClock::shared();
    let tracker = LayerClock::shared();
    let mut sums = LayerSums {
        per_tracker: vec![(0.0, 0); roster_names().len()],
        ..LayerSums::default()
    };
    let mut first: Option<(ArenaOutcome, Vec<String>)> = None;
    let mut setups = Vec::new();
    // Fastest time seen for each cell, and for the rest of the race (stream
    // generation, tracker set-up, batch harness).
    let mut best_cell_s = vec![f64::INFINITY; cells.len()];
    let mut best_harness_s = f64::INFINITY;
    let clock = Stopwatch::start();
    while setups.is_empty() || secs(clock.elapsed_nanos()) < seconds {
        setups.push(timed(|| set_up(&grid)).1);
        let (race, s) = timed(|| run_arena(&grid, BatchConfig::default()));
        let race = race.expect("the full arena grid is valid");
        let (_, first_lines) =
            first.get_or_insert_with(|| (race.clone(), race.deterministic_lines()));
        check(&race, cells.len(), first_lines, &mut out);
        let cells_s: f64 = race.rows.iter().map(|r| r.wall_secs).sum();
        best_harness_s = best_harness_s.min(s - cells_s);
        for (best, row) in best_cell_s.iter_mut().zip(&race.rows) {
            *best = best.min(row.wall_secs);
        }
        if trace {
            sums.untraced_s += s;
            sums.harness_s += s - cells_s;
            for row in &race.rows {
                let i = roster_names()
                    .iter()
                    .position(|n| *n == row.tracker)
                    .expect("rows name roster trackers");
                sums.per_tracker[i].0 += row.wall_secs;
                sums.per_tracker[i].1 += row.demand_acts;
            }
            run_traced(&cells, &race, &workloads, &tracker, &mut sums, &mut out);
        }
        sums.rounds += 1;
    }
    let (first, _) = first.expect("at least one race ran");

    if trace {
        let per_round = |v: f64| v / sums.rounds as f64;
        out.set("workloads.ops", per_round(workloads.calls() as f64));
        out.set("workloads.self_s", per_round(workloads.secs()));
        out.set("workloads.ns_per_op", workloads.ns_per_call());
        // `ArenaCell::rows` runs only inside the races, never in set-up.
        out.set("workloads.setup_share", 0.0);
        out.set("tracker.calls", per_round(tracker.calls() as f64));
        out.set("tracker.self_s", per_round(tracker.secs()));
        out.set("tracker.ns_per_call", tracker.ns_per_call());
        out.set("tracker.share", ratio(tracker.secs(), sums.traced_s));
        out.set("fastsim.self_s", per_round(sums.fastsim_s - tracker.secs()));
        for (name, &(s, acts)) in roster_names().iter().zip(&sums.per_tracker) {
            out.set(arena_metric(name), ratio(s * 1e9, acts as f64));
        }
        out.set("arena.harness_s", per_round(sums.harness_s));
        out.set(
            "trace.overhead_pct",
            100.0 * ratio(sums.traced_s - sums.untraced_s, sums.untraced_s),
        );
        out.set("trace.timed_s", per_round(sums.traced_s));
    } else {
        out.set("setup_s", median(&setups));
        // One race with every cell, and the harness, at its fastest (see
        // `METRICS.md`).
        let race_s = best_cell_s.iter().sum::<f64>() + best_harness_s;
        let demand_acts: u64 = first.rows.iter().map(|r| r.demand_acts).sum();
        let rate = |n: u64| n as f64 / race_s / 1e6;
        out.set("macts_per_s", rate(demand_acts));
        out.set("sim_mcycles_per_s", rate(demand_acts * timing().trc));
        out.set("sim_minstr_per_s", rate(instructions));
        let perf: Vec<f64> = first
            .rows
            .iter()
            .filter(|r| r.tracker == "hydra")
            .map(|r| r.demand_acts as f64 / r.total_ops() as f64)
            .collect();
        out.set("hydra_norm_perf", geometric_mean(&perf));
        let inflation: Vec<f64> = first
            .rows
            .iter()
            .map(|r| r.total_ops() as f64 / r.demand_acts as f64)
            .collect();
        out.set("bw_inflation", geometric_mean(&inflation));
    }
    out
}

/// The per-layer metric name of a roster tracker.
fn arena_metric(tracker: &str) -> &'static str {
    match tracker {
        "hydra" => "arena.hydra.ns_per_act",
        "graphene" => "arena.graphene.ns_per_act",
        "cra" => "arena.cra.ns_per_act",
        "para" => "arena.para.ns_per_act",
        "vendor-trr" => "arena.vendor-trr.ns_per_act",
        "comet" => "arena.comet.ns_per_act",
        "abacus" => "arena.abacus.ns_per_act",
        "mint" => "arena.mint.ns_per_act",
        "start" => "arena.start.ns_per_act",
        other => panic!("roster tracker {other} has no per-layer metric"),
    }
}
