//! `ShadowOracle` against a reference copy of its earlier form (a std
//! `HashMap`, one `entry` lookup before the wrapped tracker runs and a
//! second `get_mut` after it): on random row streams with window resets,
//! wrapping a tracker that mitigates the activated row, another row, or a
//! row never activated, both must return the same response to every call
//! and end with the same report and violation log.

use hydra_sim::oracle::{OracleReport, ShadowOracle, Violation, ViolationKind};
use hydra_types::{
    ActivationKind, ActivationTracker, MemCycle, MitigationRequest, RowAddr, TrackerResponse,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The earlier oracle, kept as the reference.
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, Default)]
    struct RowState {
        current: u64,
        prev: u64,
        flagged: bool,
    }

    impl RowState {
        fn total(&self) -> u64 {
            self.current + self.prev
        }
    }

    const MAX_RECORDED: usize = 64;

    pub struct Oracle<T> {
        inner: T,
        t_rh: u64,
        rows: HashMap<RowAddr, RowState>,
        violations: Vec<Violation>,
        report: OracleReport,
    }

    impl<T: ActivationTracker> Oracle<T> {
        pub fn new(inner: T, t_rh: u32) -> Self {
            Oracle {
                inner,
                t_rh: u64::from(t_rh),
                rows: HashMap::new(),
                violations: Vec::new(),
                report: OracleReport::default(),
            }
        }

        pub fn violations(&self) -> &[Violation] {
            &self.violations
        }

        pub fn report(&self) -> OracleReport {
            let mut r = self.report;
            r.rows_tracked = self.rows.len() as u64;
            r
        }

        fn record(&mut self, kind: ViolationKind, row: RowAddr, true_count: u64, at: MemCycle) {
            self.report.violations_total += 1;
            if self.violations.len() < MAX_RECORDED {
                self.violations.push(Violation {
                    kind,
                    row,
                    true_count,
                    at,
                    activation_index: self.report.activations,
                });
            }
        }

        fn apply_mitigations(&mut self, response: &TrackerResponse, at: MemCycle) {
            for m in &response.mitigations {
                self.report.mitigations += 1;
                let state = self.rows.entry(m.aggressor).or_default();
                if state.total() == 0 {
                    let count = state.total();
                    self.record(ViolationKind::SpuriousMitigation, m.aggressor, count, at);
                }
                let state = self.rows.entry(m.aggressor).or_default();
                state.current = 0;
                state.prev = 0;
                state.flagged = false;
            }
        }

        pub fn on_activation(
            &mut self,
            row: RowAddr,
            now: MemCycle,
            kind: ActivationKind,
        ) -> TrackerResponse {
            self.report.activations += 1;
            self.rows.entry(row).or_default().current += 1;

            let response = self.inner.on_activation(row, now, kind);
            self.apply_mitigations(&response, now);

            if let Some(state) = self.rows.get_mut(&row) {
                let total = state.total();
                self.report.worst_unmitigated = self.report.worst_unmitigated.max(total);
                if total >= self.t_rh && !state.flagged {
                    state.flagged = true;
                    self.record(ViolationKind::ExcessActivations, row, total, now);
                }
            }
            response
        }

        pub fn reset_window(&mut self, now: MemCycle) {
            self.report.window_resets += 1;
            for state in self.rows.values_mut() {
                state.prev = state.current;
                state.current = 0;
                if state.total() < self.t_rh {
                    state.flagged = false;
                }
            }
            self.rows.retain(|_, s| s.total() > 0);
            self.inner.reset_window(now);
        }
    }
}

/// What the scripted tracker answers to one activation.
#[derive(Debug, Clone, Copy)]
enum Answer {
    Nothing,
    /// Mitigate the row just activated.
    Activated,
    /// Mitigate a row of the stream's row space, activated or not.
    Other(u32),
    /// Mitigate a row outside the stream's row space: always spurious.
    Never(u32),
    /// Mitigate the activated row and another one.
    Both(u32),
}

/// A tracker that answers its `n`-th activation with `script[n % len]`.
#[derive(Debug, Clone)]
struct Scripted {
    script: Vec<Answer>,
    calls: usize,
}

fn row(r: u32) -> RowAddr {
    RowAddr::new(0, 0, (r % 2) as u8, r / 2)
}

impl ActivationTracker for Scripted {
    fn on_activation(
        &mut self,
        activated: RowAddr,
        _now: MemCycle,
        _kind: ActivationKind,
    ) -> TrackerResponse {
        let answer = self.script[self.calls % self.script.len()];
        self.calls += 1;
        let rows = match answer {
            Answer::Nothing => vec![],
            Answer::Activated => vec![activated],
            Answer::Other(r) => vec![row(r)],
            Answer::Never(r) => vec![RowAddr::new(0, 1, 0, 1_000 + r)],
            Answer::Both(r) => vec![activated, row(r)],
        };
        TrackerResponse {
            mitigations: rows.into_iter().map(MitigationRequest::new).collect(),
            side_requests: Vec::new(),
        }
    }

    fn reset_window(&mut self, _now: MemCycle) {}

    fn name(&self) -> &str {
        "scripted"
    }

    fn sram_bytes(&self) -> u64 {
        0
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Activate(u32),
    Reset,
}

fn answers() -> impl Strategy<Value = Vec<Answer>> {
    prop::collection::vec(
        prop_oneof![
            12 => Just(Answer::Nothing),
            3 => Just(Answer::Activated),
            2 => (0u32..24).prop_map(Answer::Other),
            1 => (0u32..4).prop_map(Answer::Never),
            1 => (0u32..24).prop_map(Answer::Both),
        ],
        1..40,
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            30 => (0u32..16).prop_map(Op::Activate),
            1 => Just(Op::Reset),
        ],
        1..600,
    )
}

fn kind_of(i: usize) -> ActivationKind {
    match i % 5 {
        0 => ActivationKind::MitigationRefresh,
        1 => ActivationKind::TrackerSide,
        _ => ActivationKind::Demand,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn oracle_matches_the_two_lookup_reference(
        script in answers(),
        stream in ops(),
        t_rh in 2u32..40,
    ) {
        let tracker = Scripted { script, calls: 0 };
        let mut oracle = ShadowOracle::new(tracker.clone(), t_rh);
        let mut reference = reference::Oracle::new(tracker, t_rh);
        let mut now: MemCycle = 0;
        for (i, op) in stream.into_iter().enumerate() {
            now += 3;
            match op {
                Op::Activate(r) => {
                    let kind = kind_of(i);
                    let got = oracle.on_activation(row(r), now, kind);
                    let want = reference.on_activation(row(r), now, kind);
                    prop_assert_eq!(got, want, "response to call {}", i);
                }
                Op::Reset => {
                    oracle.reset_window(now);
                    reference.reset_window(now);
                }
            }
            prop_assert_eq!(oracle.report(), reference.report(), "report after op {}", i);
        }
        prop_assert_eq!(oracle.violations(), reference.violations());
    }
}

#[test]
fn a_fixed_script_draws_both_violation_kinds_from_both_oracles() {
    let script = vec![
        Answer::Nothing,
        Answer::Nothing,
        Answer::Never(0),
        Answer::Nothing,
        Answer::Both(3),
    ];
    let tracker = Scripted { script, calls: 0 };
    let mut oracle = ShadowOracle::new(tracker.clone(), 3);
    let mut reference = reference::Oracle::new(tracker, 3);
    for t in 0..40u64 {
        let r = row((t % 3) as u32);
        assert_eq!(
            oracle.on_activation(r, t, ActivationKind::Demand),
            reference.on_activation(r, t, ActivationKind::Demand)
        );
        if t % 17 == 16 {
            oracle.reset_window(t);
            reference.reset_window(t);
        }
    }
    let kinds = |v: &[Violation]| {
        [
            ViolationKind::SpuriousMitigation,
            ViolationKind::ExcessActivations,
        ]
        .map(|k| v.iter().any(|x| x.kind == k))
    };
    assert_eq!(kinds(oracle.violations()), [true, true]);
    assert_eq!(oracle.violations(), reference.violations());
    assert_eq!(oracle.report(), reference.report());
}
