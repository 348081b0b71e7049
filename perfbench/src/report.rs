//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` lists the same names; the two lists must agree. Every
//! workload prints every metric of its mode. An end-to-end metric a
//! workload cannot produce is a bug and fails the run; a per-layer metric
//! of a layer the workload does not use reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("macts_per_s", "Macts/s"),
    ("hydra_norm_perf", "ratio"),
    ("bw_inflation", "ratio"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Times and counts are per
/// round: one pass over every cell (system_fig5), stream (hydra_stream) or
/// race (arena_race).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.ops", "count"),
    ("workloads.self_s", "s"),
    ("workloads.ns_per_op", "ns"),
    ("workloads.setup_share", "ratio"),
    ("tracker.calls", "count"),
    ("tracker.self_s", "s"),
    ("tracker.ns_per_call", "ns"),
    ("tracker.share", "ratio"),
    ("hydra.gct_filter_rate", "ratio"),
    ("hydra.rcc_hit_rate", "ratio"),
    ("hydra.rct_accesses", "count"),
    ("hydra.group_spills", "count"),
    ("hydra.mitigations", "count"),
    ("hydra.window_resets", "count"),
    ("sim.loop_self_s", "s"),
    ("sim.ns_per_mem_cycle", "ns"),
    ("controller.demand_acts", "count"),
    ("controller.mitigation_acts", "count"),
    ("controller.side_acts", "count"),
    ("controller.window_resets", "count"),
    ("controller.avg_read_latency_cycles", "cycles"),
    ("dram.activations", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bus_busy_frac", "ratio"),
    ("fastsim.self_s", "s"),
    ("arena.hydra.ns_per_act", "ns"),
    ("arena.graphene.ns_per_act", "ns"),
    ("arena.cra.ns_per_act", "ns"),
    ("arena.para.ns_per_act", "ns"),
    ("arena.vendor-trr.ns_per_act", "ns"),
    ("arena.comet.ns_per_act", "ns"),
    ("arena.abacus.ns_per_act", "ns"),
    ("arena.mint.ns_per_act", "ns"),
    ("arena.start.ns_per_act", "ns"),
    ("arena.harness_s", "s"),
    ("host.cpu_s", "s"),
    ("host.cpu_frac", "ratio"),
    ("host.steal_jiffies", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.timed_s", "s"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units (cells, replays, races, cross-checks).
    pub attempted: u64,
    /// Units that broke a correctness check.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one checked unit; `problem` is `None` when it passed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    /// Sets a metric. `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Sets a metric the workload has not set itself.
    pub fn set_if_unset(&mut self, name: &'static str, value: f64) {
        if !self.values.contains_key(name) {
            self.set(name, value);
        }
    }

    /// The result line: the metrics of the chosen mode, as one JSON object.
    pub fn json_line(&mut self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.check(Some(format!("metric {name} is not finite ({v})")));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.check(Some(format!("metric {name} was not measured")));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `problem` when `ok` is false.
pub fn unless(ok: bool, problem: impl FnOnce() -> String) -> Option<String> {
    if ok {
        None
    } else {
        Some(problem())
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
