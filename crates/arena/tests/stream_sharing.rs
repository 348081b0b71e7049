//! `run_arena` shares one generated stream among the cells of each
//! workload. On a 2 workloads × 2 trackers × 2 thresholds grid, the
//! leaderboard must not depend on the job count, and every row must equal
//! the one a standalone `ArenaCell::run` (which generates its own stream)
//! produces: a cell handed another workload's stream would differ.

use hydra_arena::leaderboard::ArenaRow;
use hydra_arena::{run_arena, ArenaGrid, ArenaOutcome};
use hydra_sim::batch::BatchConfig;

fn grid() -> ArenaGrid {
    ArenaGrid {
        geometry: "tiny".to_string(),
        trackers: vec!["hydra".to_string(), "graphene".to_string()],
        t_rh: vec![1000, 500],
        workloads: vec!["double_sided".to_string(), "gups".to_string()],
        acts: 4_000,
        seed: 7,
    }
}

fn race(jobs: usize) -> ArenaOutcome {
    let batch = BatchConfig {
        jobs,
        ..BatchConfig::default()
    };
    match run_arena(&grid(), batch) {
        Ok(outcome) => outcome,
        Err(e) => panic!("arena: {e}"),
    }
}

#[test]
fn shared_streams_match_standalone_cells_at_any_job_count() {
    let sequential = race(1);
    let parallel = race(4);
    assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
    assert_eq!(
        sequential.deterministic_lines(),
        parallel.deterministic_lines()
    );

    let cells = match grid().cells() {
        Ok(c) => c,
        Err(e) => panic!("grid: {e}"),
    };
    assert_eq!(cells.len(), 8);
    assert_eq!(sequential.rows.len(), cells.len());
    for (cell, row) in cells.iter().zip(&sequential.rows) {
        let alone = match cell.run() {
            Ok(r) => r,
            Err(e) => panic!("{}: {e}", cell.label()),
        };
        assert_eq!(
            alone.deterministic_json(),
            row.deterministic_json(),
            "{}",
            cell.label()
        );
    }

    // The two workloads' streams differ, so a mixed-up stream would show.
    let mitigations = |workload: &str| -> Vec<u64> {
        sequential
            .rows
            .iter()
            .filter(|r| r.workload == workload)
            .map(|r: &ArenaRow| r.mitigations)
            .collect()
    };
    assert_ne!(mitigations("double_sided"), mitigations("gups"));
}
