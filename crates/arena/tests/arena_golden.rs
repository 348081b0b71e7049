//! The golden `hydra-arena-v1` leaderboard.
//!
//! Runs the full arena grid (9 roster trackers × 3 thresholds × 6
//! workloads, 50 K activations per cell, one job) and compares every
//! deterministic line — the meta line, each cell row without `wall_secs`,
//! and the summary with its Pareto frontier and Figure-5 checks — against
//! `arena_golden.txt`. The fixture is byte-identical to
//! `hydra sweep --arena --jobs 1 --deterministic`.
//!
//! Every field of a row is a function of the tracker's responses, its
//! provisioning string and its spillover, so any refactor of the tracker
//! plumbing that changes what a tracker decides, how it is provisioned or
//! what it reports shows up here as a mismatching line.
//!
//! On a mismatch the test prints the whole leaderboard as it now renders,
//! in the fixture's format.

use hydra_arena::{run_arena, ArenaGrid};
use hydra_sim::batch::BatchConfig;

const FIXTURE: &str = include_str!("arena_golden.txt");

#[test]
fn full_arena_matches_the_golden_leaderboard() {
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let outcome = match run_arena(&ArenaGrid::full(), BatchConfig::default()) {
        Ok(o) => o,
        Err(e) => panic!("arena grid: {e}"),
    };
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let actual = outcome.deterministic_lines();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(a, e)| e.is_none_or(|e| a.as_str() != *e))
        .map(|(a, e)| format!("  expected {}\n  actual   {a}", e.unwrap_or(&"<none>")))
        .collect();
    if !mismatches.is_empty() || actual.len() != expected.len() {
        eprintln!("current leaderboard:\n{}", actual.join("\n"));
        panic!(
            "{} of {} lines differ from the golden leaderboard ({} fixture lines):\n{}",
            mismatches.len(),
            actual.len(),
            expected.len(),
            mismatches.join("\n")
        );
    }
    // 1 meta + 162 cells + 1 summary.
    assert_eq!(actual.len(), 164);
}
