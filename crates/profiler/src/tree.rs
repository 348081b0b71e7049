//! The live call-tree profiler and its plain exported tree.

use crate::sink::SpanSink;
use hydra_types::deadline::Stopwatch;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A span-stack profiler aggregating brackets into a call tree.
///
/// The handle is a cheap clone onto shared per-thread state: the driving
/// layer keeps one clone to bracket outer phases (such as `sim`) and hands
/// another to the tracker, whose inner-loop brackets nest under whatever
/// the driver has open. It is deliberately **not** `Send` — each worker
/// thread builds its own profiler and exports a plain [`ProfileTree`]
/// (which *is* `Send`) for cross-thread merging.
///
/// Timing uses nanosecond resolution via
/// [`Stopwatch::elapsed_nanos`](hydra_types::deadline::Stopwatch::elapsed_nanos):
/// tracker phases run tens of nanoseconds, which microsecond quantization
/// would collapse to zero and void the conservation check.
///
/// # Sampling
///
/// [`TreeProfiler::new`] records every span exhaustively, at a cost of two
/// clock reads per span — more than a tracker phase itself takes, so the
/// instrumented run is several times slower than the bare one. For
/// low-overhead attribution, [`TreeProfiler::sampled`] answers
/// [`SpanSink::unit_tick`] true for only every N-th work unit: the
/// instrumented hot path then elides all of a suppressed unit's brackets,
/// so a skipped unit costs one rotor tick — no clock read, no `RefCell`
/// borrow, no stack push. Shares *within* the hot path stay unbiased as
/// long as N is not resonant with the workload's periodicity (pick N
/// coprime to it). Phases bracketed outside unit ticks (driver spans like
/// `sim`, rare maintenance spans like `window_reset`) are always recorded
/// exhaustively and can never be sampled out of the report.
///
/// The sampler's rotor is **handle-local** (plain [`Cell`]s): the handle
/// asked for unit ticks must be the one bracketing those units' phases —
/// which the tracker seam guarantees, since the tracker owns exactly one
/// handle. Take clones at setup time, not mid-unit.
#[derive(Debug, Clone)]
pub struct TreeProfiler {
    inner: Rc<RefCell<Inner>>,
    /// Record 1 of every `sample_period` work units (1 = exhaustive).
    sample_period: u32,
    /// Work units seen since the last recorded one.
    rotor: Cell<u32>,
    /// Work units recorded in full. Incremented on the (cold) record path
    /// only, so the per-unit suppress tick touches just the rotor —
    /// skipped units are derived: each recording consumes exactly
    /// `sample_period` unit ticks, and the rotor holds the tail.
    recorded_units: Cell<u64>,
}

#[derive(Debug)]
struct Inner {
    clock: Stopwatch,
    nodes: Vec<NodeSlot>,
    roots: BTreeMap<&'static str, usize>,
    stack: Vec<Frame>,
    unbalanced_exits: u64,
}

#[derive(Debug)]
struct NodeSlot {
    phase: &'static str,
    count: u64,
    total_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
    children: BTreeMap<&'static str, usize>,
}

#[derive(Debug)]
struct Frame {
    node: usize,
    start_nanos: u64,
}

impl Inner {
    fn child_of(&mut self, parent: Option<usize>, phase: &'static str) -> usize {
        let map = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = map.get(phase) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(NodeSlot {
            phase,
            count: 0,
            total_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
            children: BTreeMap::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.insert(phase, idx),
            None => self.roots.insert(phase, idx),
        };
        idx
    }

    fn close_top(&mut self, now: u64) {
        if let Some(frame) = self.stack.pop() {
            let elapsed = now.saturating_sub(frame.start_nanos);
            let node = &mut self.nodes[frame.node];
            node.count += 1;
            node.total_nanos += elapsed;
            node.min_nanos = node.min_nanos.min(elapsed);
            node.max_nanos = node.max_nanos.max(elapsed);
        }
    }

    fn export_node(&self, idx: usize) -> ProfileNode {
        let slot = &self.nodes[idx];
        ProfileNode {
            count: slot.count,
            total_nanos: slot.total_nanos,
            min_nanos: if slot.count == 0 { 0 } else { slot.min_nanos },
            max_nanos: slot.max_nanos,
            children: slot
                .children
                .iter()
                .map(|(&phase, &child)| (phase.to_string(), self.export_node(child)))
                .collect(),
        }
    }
}

impl TreeProfiler {
    /// A fresh exhaustive profiler with an empty tree, clock anchored now.
    pub fn new() -> Self {
        TreeProfiler::sampled(1)
    }

    /// A profiler whose [`SpanSink::unit_tick`] records 1 of every
    /// `period` tracker work units and suppresses the rest without reading
    /// the clock. `period` 0 is treated as 1 (exhaustive). See the type
    /// docs for when sampling is unbiased.
    pub fn sampled(period: u32) -> Self {
        TreeProfiler {
            inner: Rc::new(RefCell::new(Inner {
                clock: Stopwatch::start(),
                nodes: Vec::new(),
                roots: BTreeMap::new(),
                stack: Vec::new(),
                unbalanced_exits: 0,
            })),
            sample_period: period.max(1),
            rotor: Cell::new(0),
            recorded_units: Cell::new(0),
        }
    }

    /// The configured sampling period (1 = exhaustive).
    pub fn sample_period(&self) -> u32 {
        self.sample_period
    }

    /// Work units the sampler skipped (0 on exhaustive profilers).
    /// Handle-local: ask the handle that takes the unit ticks.
    pub fn skipped_units(&self) -> u64 {
        if self.sample_period <= 1 {
            return 0;
        }
        self.recorded_units.get() * u64::from(self.sample_period - 1) + u64::from(self.rotor.get())
    }

    /// Snapshots the aggregated tree of **completed** spans. Open frames
    /// (entered, not yet exited) contribute nothing until they close, so
    /// export after the outermost bracket has exited.
    pub fn tree(&self) -> ProfileTree {
        let inner = self.inner.borrow();
        ProfileTree {
            roots: inner
                .roots
                .iter()
                .map(|(&phase, &idx)| (phase.to_string(), inner.export_node(idx)))
                .collect(),
            unbalanced_exits: inner.unbalanced_exits,
        }
    }

    /// Depth of the currently open span stack (diagnostics).
    pub fn open_depth(&self) -> usize {
        self.inner.borrow().stack.len()
    }

    /// Exits recorded without a matching open span (see
    /// [`SpanSink`] nesting contract).
    pub fn unbalanced_exits(&self) -> u64 {
        self.inner.borrow().unbalanced_exits
    }
}

impl Default for TreeProfiler {
    fn default() -> Self {
        TreeProfiler::new()
    }
}

impl SpanSink for TreeProfiler {
    #[inline(never)]
    fn enter(&mut self, phase: &'static str) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.clock.elapsed_nanos();
        let parent = inner.stack.last().map(|f| f.node);
        let node = inner.child_of(parent, phase);
        inner.stack.push(Frame {
            node,
            start_nanos: now,
        });
    }

    #[inline(never)]
    fn exit(&mut self, phase: &'static str) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.clock.elapsed_nanos();
        let matches = inner
            .stack
            .last()
            .is_some_and(|f| inner.nodes[f.node].phase == phase);
        if matches {
            inner.close_top(now);
            return;
        }
        drop(inner);
        self.recover_unbalanced(phase, now);
    }

    /// The sampling rotor: one `Cell` load/store per suppressed unit, one
    /// extra counter bump per recorded one. Inlined into the caller's hot
    /// loop; everything heavier stays behind [`enter`](SpanSink::enter).
    #[inline(always)]
    fn unit_tick(&mut self) -> bool {
        if self.sample_period > 1 {
            let rotor = self.rotor.get() + 1;
            if rotor < self.sample_period {
                self.rotor.set(rotor);
                return false;
            }
            self.rotor.set(0);
            self.recorded_units.set(self.recorded_units.get() + 1);
        }
        true
    }
}

impl TreeProfiler {
    #[cold]
    fn recover_unbalanced(&mut self, phase: &'static str, now: u64) {
        let mut inner = self.inner.borrow_mut();
        // Unbalanced: count it, then recover. If the phase is open deeper
        // in the stack, close down to (and including) it — attributing the
        // measured time to every abandoned frame keeps the clock conserved.
        // If it is not open at all, drop the exit on the floor.
        inner.unbalanced_exits += 1;
        let open_at = inner
            .stack
            .iter()
            .rposition(|f| inner.nodes[f.node].phase == phase);
        if let Some(pos) = open_at {
            while inner.stack.len() > pos {
                inner.close_top(now);
            }
        }
    }
}

/// One aggregated span node: how often the phase ran at this position in
/// the call tree, and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Total nanoseconds across all completed spans.
    pub total_nanos: u64,
    /// Shortest single span (0 when `count == 0`).
    pub min_nanos: u64,
    /// Longest single span.
    pub max_nanos: u64,
    /// Child phases, keyed by phase name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// An empty node (merge identity at node granularity).
    pub fn empty() -> Self {
        ProfileNode {
            count: 0,
            total_nanos: 0,
            min_nanos: 0,
            max_nanos: 0,
            children: BTreeMap::new(),
        }
    }

    /// Self time: total minus the time attributed to children, saturating.
    /// Children are measured inside the parent's bracket, so saturation
    /// only engages on clock pathologies.
    pub fn self_nanos(&self) -> u64 {
        let child_total: u64 = self.children.values().map(|c| c.total_nanos).sum();
        self.total_nanos.saturating_sub(child_total)
    }

    /// Mean nanoseconds per span (0 when `count == 0`).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Merges another node into `self`, child-wise recursive. The min of
    /// an empty node never wins: 0-count mins are treated as absent.
    pub fn merge(&mut self, other: &ProfileNode) {
        self.min_nanos = match (self.count, other.count) {
            (0, 0) => 0,
            (0, _) => other.min_nanos,
            (_, 0) => self.min_nanos,
            _ => self.min_nanos.min(other.min_nanos),
        };
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        for (phase, child) in &other.children {
            self.children
                .entry(phase.clone())
                .or_insert_with(ProfileNode::empty)
                .merge(child);
        }
    }
}

/// A plain, `Send`, aggregated call tree exported from a [`TreeProfiler`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileTree {
    /// Top-level phases, keyed by phase name.
    pub roots: BTreeMap<String, ProfileNode>,
    /// Exits recorded without a matching open span. Zero on any correctly
    /// instrumented run.
    pub unbalanced_exits: u64,
}

impl ProfileTree {
    /// The empty tree (the merge identity).
    pub fn new() -> Self {
        ProfileTree::default()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total nanoseconds across all root spans.
    pub fn total_nanos(&self) -> u64 {
        self.roots.values().map(|r| r.total_nanos).sum()
    }

    /// Sum of self-times over every node in the tree. Equal to
    /// [`total_nanos`](Self::total_nanos) whenever conservation holds
    /// (self-times telescope back to the root totals).
    pub fn total_self_nanos(&self) -> u64 {
        fn walk(node: &ProfileNode) -> u64 {
            node.self_nanos() + node.children.values().map(walk).sum::<u64>()
        }
        self.roots.values().map(walk).sum()
    }

    /// Merges another tree into `self`. Commutative and associative with
    /// the empty tree as identity (proptested in `tests/merge_laws.rs`),
    /// so per-worker trees can be folded in any completion order — the
    /// same contract `HydraStats::merge` gives `hydra-engine`.
    pub fn merge(&mut self, other: &ProfileTree) {
        self.unbalanced_exits += other.unbalanced_exits;
        for (phase, node) in &other.roots {
            self.roots
                .entry(phase.clone())
                .or_insert_with(ProfileNode::empty)
                .merge(node);
        }
    }

    /// Verifies the conservation identity on every node: the children's
    /// total time fits inside the parent's (within `tolerance`, a fraction
    /// of the parent total), and the subtree's self-times sum back to the
    /// node total. Nesting + a monotonic clock make both exact in this
    /// implementation; the tolerance is headroom for future samplers.
    ///
    /// # Errors
    ///
    /// Returns the path of the first violating node and the numbers that
    /// disagree.
    pub fn check_conservation(&self, tolerance: f64) -> Result<(), String> {
        fn walk(path: &str, node: &ProfileNode, tolerance: f64) -> Result<(), String> {
            let child_total: u64 = node.children.values().map(|c| c.total_nanos).sum();
            let slack = (node.total_nanos as f64 * tolerance).ceil() as u64;
            if child_total > node.total_nanos.saturating_add(slack) {
                return Err(format!(
                    "conservation violated at `{path}`: children total {child_total} ns \
                     exceeds span total {} ns (+{slack} ns tolerance)",
                    node.total_nanos
                ));
            }
            let self_sum = node.self_nanos()
                + node
                    .children
                    .values()
                    .map(|c| {
                        fn subtree_self(n: &ProfileNode) -> u64 {
                            n.self_nanos() + n.children.values().map(subtree_self).sum::<u64>()
                        }
                        subtree_self(c)
                    })
                    .sum::<u64>();
            let diff = self_sum.abs_diff(node.total_nanos);
            if diff > slack {
                return Err(format!(
                    "self-time telescope broken at `{path}`: Σ self = {self_sum} ns \
                     vs total {} ns (tolerance {slack} ns)",
                    node.total_nanos
                ));
            }
            for (phase, child) in &node.children {
                walk(&format!("{path};{phase}"), child, tolerance)?;
            }
            Ok(())
        }
        for (phase, node) in &self.roots {
            walk(phase, node, tolerance)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::phase;

    fn spin(mut spans: TreeProfiler, layout: &[(&'static str, &[&'static str])]) -> ProfileTree {
        for (outer, inners) in layout {
            spans.enter(outer);
            for inner in *inners {
                spans.enter(inner);
                spans.exit(inner);
            }
            spans.exit(outer);
        }
        spans.tree()
    }

    #[test]
    fn brackets_build_a_nested_tree() {
        let tree = spin(
            TreeProfiler::new(),
            &[
                (phase::ACTIVATE, &[phase::GCT_LOOKUP, phase::RCC_PROBE]),
                (phase::ACTIVATE, &[phase::GCT_LOOKUP]),
            ],
        );
        let act = &tree.roots[phase::ACTIVATE];
        assert_eq!(act.count, 2);
        assert_eq!(act.children[phase::GCT_LOOKUP].count, 2);
        assert_eq!(act.children[phase::RCC_PROBE].count, 1);
        assert_eq!(tree.unbalanced_exits, 0);
        tree.check_conservation(0.0).expect("nesting conserves");
    }

    #[test]
    fn clones_share_one_stack() {
        let mut driver = TreeProfiler::new();
        let mut tracker = driver.clone();
        driver.enter(phase::SIM);
        tracker.enter(phase::ACTIVATE);
        tracker.exit(phase::ACTIVATE);
        driver.exit(phase::SIM);
        let tree = driver.tree();
        assert_eq!(tree.roots[phase::SIM].children[phase::ACTIVATE].count, 1);
    }

    #[test]
    fn totals_are_monotone_in_nesting() {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::ACTIVATE);
        spans.enter(phase::RCC_PROBE);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit(phase::RCC_PROBE);
        spans.exit(phase::ACTIVATE);
        let tree = spans.tree();
        let act = &tree.roots[phase::ACTIVATE];
        let probe = &act.children[phase::RCC_PROBE];
        assert!(probe.total_nanos >= 2_000_000, "slept 2ms inside the span");
        assert!(act.total_nanos >= probe.total_nanos);
        assert!(act.min_nanos <= act.max_nanos);
        assert_eq!(act.self_nanos(), act.total_nanos - probe.total_nanos);
    }

    #[test]
    fn unmatched_exit_is_counted_not_fatal() {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::ACTIVATE);
        spans.exit(phase::SPILL); // never opened
        assert_eq!(spans.unbalanced_exits(), 1);
        assert_eq!(spans.open_depth(), 1, "open frame survives a bogus exit");
        spans.exit(phase::ACTIVATE);
        let tree = spans.tree();
        assert_eq!(tree.roots[phase::ACTIVATE].count, 1);
        assert_eq!(tree.unbalanced_exits, 1);
    }

    #[test]
    fn mismatched_exit_closes_down_to_the_match() {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::SIM);
        spans.enter(phase::ACTIVATE);
        spans.enter(phase::RCC_PROBE);
        spans.exit(phase::SIM); // abandons activate + rcc_probe
        assert_eq!(spans.open_depth(), 0);
        assert_eq!(spans.unbalanced_exits(), 1);
        let tree = spans.tree();
        // All three frames closed with measured (conserved) times.
        assert_eq!(tree.roots[phase::SIM].count, 1);
        tree.check_conservation(0.0).expect("recovery conserves");
    }

    #[test]
    fn open_spans_are_not_exported() {
        let mut spans = TreeProfiler::new();
        spans.enter(phase::SIM);
        let tree = spans.tree();
        assert_eq!(tree.roots.get(phase::SIM).map(|n| n.count), Some(0));
        assert_eq!(tree.total_nanos(), 0);
    }

    #[test]
    fn merge_folds_counts_and_extrema() {
        let a = spin(TreeProfiler::new(), &[(phase::ACTIVATE, &[phase::SPILL])]);
        let b = spin(
            TreeProfiler::new(),
            &[(phase::ACTIVATE, &[phase::MITIGATION])],
        );
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.roots[phase::ACTIVATE].count, 2);
        assert_eq!(m.roots[phase::ACTIVATE].children.len(), 2);
        assert_eq!(m.total_nanos(), a.total_nanos() + b.total_nanos());
        let mut m2 = b;
        m2.merge(&a);
        assert_eq!(m, m2, "merge is commutative on real trees");
    }

    #[test]
    fn empty_min_never_wins_a_merge() {
        let mut open_only = TreeProfiler::new();
        open_only.enter(phase::SIM);
        let zero_count = open_only.tree(); // sim node exists, count 0
        let real = spin(TreeProfiler::new(), &[(phase::SIM, &[])]);
        let mut m = zero_count.clone();
        m.merge(&real);
        assert_eq!(
            m.roots[phase::SIM].min_nanos,
            real.roots[phase::SIM].min_nanos
        );
        let mut m2 = real.clone();
        m2.merge(&zero_count);
        assert_eq!(m, m2);
    }

    /// One instrumented work unit driven the way the tracker drives it:
    /// tick first, bracket only when the tick says record.
    fn drive_unit(spans: &mut TreeProfiler, inner: &'static str) {
        if spans.unit_tick() {
            spans.enter(phase::ACTIVATE);
            spans.enter(inner);
            spans.exit(inner);
            spans.exit(phase::ACTIVATE);
        }
    }

    #[test]
    fn sampler_records_one_in_n_units_and_conserves() {
        let mut spans = TreeProfiler::sampled(4);
        for _ in 0..16 {
            drive_unit(&mut spans, phase::GCT_LOOKUP);
        }
        assert_eq!(spans.skipped_units(), 12);
        assert_eq!(spans.open_depth(), 0);
        let tree = spans.tree();
        assert_eq!(tree.roots[phase::ACTIVATE].count, 4);
        assert_eq!(
            tree.roots[phase::ACTIVATE].children[phase::GCT_LOOKUP].count,
            4
        );
        assert_eq!(tree.unbalanced_exits, 0);
        tree.check_conservation(0.0).expect("sampling conserves");
    }

    #[test]
    fn driver_spans_are_never_sampled_away() {
        let mut spans = TreeProfiler::sampled(1_000);
        spans.enter(phase::SIM);
        drive_unit(&mut spans, phase::RCC_PROBE); // suppressed: rotor 1 < 1000
        spans.enter(phase::WINDOW_SNAPSHOT);
        spans.exit(phase::WINDOW_SNAPSHOT);
        spans.exit(phase::SIM);
        assert_eq!(spans.skipped_units(), 1);
        let tree = spans.tree();
        let sim = &tree.roots[phase::SIM];
        assert_eq!(sim.count, 1);
        assert!(sim.children.contains_key(phase::WINDOW_SNAPSHOT));
        assert!(!sim.children.contains_key(phase::ACTIVATE));
        tree.check_conservation(0.0)
            .expect("partial trees conserve");
    }

    #[test]
    fn new_is_exhaustive() {
        let mut spans = TreeProfiler::new();
        assert_eq!(spans.sample_period(), 1);
        for _ in 0..8 {
            assert!(spans.unit_tick(), "period 1 records every unit");
            spans.enter(phase::ACTIVATE);
            spans.exit(phase::ACTIVATE);
        }
        assert_eq!(spans.skipped_units(), 0);
        assert_eq!(spans.tree().roots[phase::ACTIVATE].count, 8);
    }

    #[test]
    fn skipped_units_count_the_rotor_tail() {
        let mut spans = TreeProfiler::sampled(3);
        let mut recorded = 0;
        for _ in 0..8 {
            if spans.unit_tick() {
                recorded += 1;
            }
        }
        // 8 units at period 3: units 3 and 6 record, rotor holds 2 more.
        assert_eq!(recorded, 2);
        assert_eq!(spans.skipped_units(), 6);
    }

    #[test]
    fn self_time_telescopes_to_the_root() {
        let tree = spin(
            TreeProfiler::new(),
            &[(
                phase::ACTIVATE,
                &[phase::GCT_LOOKUP, phase::RCC_PROBE, phase::RCC_FILL],
            )],
        );
        assert_eq!(tree.total_self_nanos(), tree.total_nanos());
        tree.check_conservation(0.05).expect("5% acceptance bound");
    }
}
