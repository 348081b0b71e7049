//! Golden `SimResult`s of the cycle-level `SystemSim`.
//!
//! Every cell below runs the full 8-core, 2-channel system and compares
//! every field of its `SimResult` against `system_golden.txt`, recorded
//! from the cycle-stepped loop. `SystemSim::run` may only change how fast
//! it gets there: any change in simulated behaviour shows up as a
//! mismatching line.
//!
//! The grid is the 4 Fig. 5 workloads plus a double-sided and a
//! many-sided attacker (core 0) among `mcf` victims, under the baseline,
//! Hydra, Hydra without its RCC, and CRA, at 3 seeds; plus one rate-limit
//! and one row-swap cell, whose blacklists and bulk row-copy traffic the
//! victim-refresh cells never produce. At S = 1024 (a ~100 K-cycle
//! tracking window) most runs cross a window reset, the attacks draw
//! victim refreshes from Hydra and CRA, and the whole grid takes seconds
//! in the test profile.
//!
//! On a mismatch the test prints the whole table as it now renders, in
//! the fixture's format.

use hydra_bench::{ExperimentScale, TrackerKind};
use hydra_sim::controller::ControllerStats;
use hydra_sim::{SimResult, SystemSim};
use hydra_types::mitigation::MitigationPolicy;
use hydra_types::tracker::ActivationTracker;
use hydra_types::RowAddr;
use hydra_workloads::{registry, AttackPattern, MixSlot, WorkloadMix};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("system_golden.txt");

const SCALE: u64 = 1024;
const SEEDS: [u64; 3] = [1, 2, 3];
/// Each workload with its instructions per core, sized so a run spans
/// about one tracking window (~100 K memory cycles) or more.
const WORKLOADS: [(&str, u64); 6] = [
    ("gups", 500_000),
    ("mcf", 150_000),
    ("lbm", 250_000),
    ("bc_t", 55_000),
    ("double_sided", 24_000),
    ("many_sided", 12_000),
];

fn trackers() -> [(&'static str, TrackerKind); 4] {
    [
        ("baseline", TrackerKind::Baseline),
        ("hydra", TrackerKind::Hydra),
        (
            "norcc",
            TrackerKind::HydraCustom {
                t_h: 250,
                t_g: 200,
                gct_total: 32_768,
                rcc_total: 8_192,
                use_gct: true,
                use_rcc: false,
            },
        ),
        (
            "cra",
            TrackerKind::Cra {
                cache_bytes: 65_536,
            },
        ),
    ]
}

/// One cell of the grid.
struct Cell {
    workload: &'static str,
    instructions_per_core: u64,
    tracker: &'static str,
    kind: TrackerKind,
    mitigation: MitigationPolicy,
    seed: u64,
}

impl Cell {
    fn label(&self) -> String {
        let policy = match self.mitigation {
            MitigationPolicy::VictimRefresh(_) => "",
            MitigationPolicy::RateLimit => "+ratelimit",
            MitigationPolicy::RowSwap { .. } => "+rowswap",
        };
        format!("{}/{}{policy}/s{}", self.workload, self.tracker, self.seed)
    }

    /// The per-core mix: the workload in rate mode, or an attacker on
    /// core 0 (its victim placed by the seed) among `mcf` victims.
    fn mix(&self, rows_per_bank: u32) -> WorkloadMix {
        let victim = RowAddr::new(
            0,
            0,
            (self.seed % 16) as u8,
            rows_per_bank / 2 + self.seed as u32 * 97,
        );
        let attack = match self.workload {
            "double_sided" => Some(AttackPattern::DoubleSided { victim }),
            "many_sided" => Some(AttackPattern::ManySided {
                first: victim,
                n: 8,
            }),
            _ => None,
        };
        let slots = match attack {
            Some(pattern) => {
                let mcf = registry::by_name("mcf").expect("mcf is registered");
                std::iter::once(MixSlot::Attack(pattern))
                    .chain(std::iter::repeat_n(MixSlot::Workload(mcf), 7))
                    .collect()
            }
            None => vec![MixSlot::Workload(
                registry::by_name(self.workload).expect("Fig. 5 workloads are registered"),
            )],
        };
        WorkloadMix::new(self.workload, slots).expect("a mix has slots")
    }

    fn run(&self) -> SimResult {
        let scale = ExperimentScale {
            scale: SCALE,
            instructions_per_core: self.instructions_per_core,
            seed: self.seed,
        };
        let mut config = scale.system_config();
        config.mitigation = self.mitigation;
        let geometry = config.geometry;
        let mix = self.mix(geometry.rows_per_bank());
        let mut trackers: Vec<Option<Box<dyn ActivationTracker>>> = (0..geometry.channels())
            .map(|ch| {
                Some(
                    self.kind
                        .build(geometry, ch, &scale)
                        .expect("tracker builds"),
                )
            })
            .collect();
        SystemSim::new(config, |core| mix.build(geometry, core, SCALE, self.seed))
            .with_trackers(|ch| trackers[usize::from(ch)].take().expect("one per channel"))
            .run()
    }
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, instructions_per_core) in WORKLOADS {
        for (tracker, kind) in trackers() {
            for seed in SEEDS {
                cells.push(Cell {
                    workload,
                    instructions_per_core,
                    tracker,
                    kind,
                    mitigation: MitigationPolicy::default(),
                    seed,
                });
            }
        }
    }
    for mitigation in [
        MitigationPolicy::RateLimit,
        MitigationPolicy::RowSwap { seed: 5 },
    ] {
        cells.push(Cell {
            workload: "double_sided",
            instructions_per_core: 24_000,
            tracker: "hydra",
            kind: TrackerKind::Hydra,
            mitigation,
            seed: 1,
        });
    }
    cells
}

/// One fixture line: the label, then every `SimResult` field, then every
/// `ControllerStats` field of each channel. The destructuring makes a new
/// field a compile error here rather than a silently unchecked value.
fn render(label: &str, result: &SimResult) -> String {
    let SimResult {
        cycles,
        cpu_cycles,
        instructions,
        controllers,
    } = result;
    let mut line = format!("{label} {cycles} {cpu_cycles} {instructions}");
    for c in controllers {
        let ControllerStats {
            reads_done,
            writes_done,
            read_latency_sum,
            demand_acts,
            rate_limited_rows,
            row_swaps,
            mitigation_acts,
            side_acts,
            side_done,
            window_resets,
        } = *c;
        let _ = write!(
            line,
            " | {reads_done} {writes_done} {read_latency_sum} {demand_acts} \
             {rate_limited_rows} {row_swaps} {mitigation_acts} {side_acts} \
             {side_done} {window_resets}"
        );
    }
    line
}

#[test]
fn system_sim_matches_the_golden_results() {
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let results: Vec<(String, SimResult)> = grid()
        .iter()
        .map(|cell| (cell.label(), cell.run()))
        .collect();
    let actual: Vec<String> = results
        .iter()
        .map(|(label, result)| render(label, result))
        .collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(a, e)| e.is_none_or(|e| a.as_str() != *e))
        .map(|(a, e)| format!("  expected {}\n  actual   {a}", e.unwrap_or(&"<none>")))
        .collect();
    if !mismatches.is_empty() || actual.len() != expected.len() {
        eprintln!("current table:\n{}", actual.join("\n"));
        panic!(
            "{} of {} cells differ from the golden results ({} fixture lines):\n{}",
            mismatches.len(),
            actual.len(),
            expected.len(),
            mismatches.join("\n")
        );
    }

    // The grid only shows the event-driven loop exact if its cells reach
    // the events a sleeping controller must wake for.
    let total = |f: fn(&ControllerStats) -> u64| -> u64 {
        results
            .iter()
            .flat_map(|(_, r)| &r.controllers)
            .map(f)
            .sum()
    };
    assert!(total(|c| c.window_resets) > 0, "no window reset");
    assert!(total(|c| c.mitigation_acts) > 0, "no victim refresh");
    assert!(
        total(|c| c.rate_limited_rows) > 0,
        "no rate-limit blacklist"
    );
    assert!(total(|c| c.row_swaps) > 0, "no row swap");
    assert!(total(|c| c.side_done) > 0, "no side traffic");
}
