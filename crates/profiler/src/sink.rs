//! The [`SpanSink`] seam and the phase-name vocabulary.

/// A sink for phase brackets: `enter(phase)` opens a span, `exit(phase)`
/// closes it. Implementations decide what a bracket costs — the default
/// [`NoopProfiler`] makes it free.
///
/// Brackets must nest: every `exit` names the most recently entered,
/// still-open phase. A live profiler tolerates violations (it counts them
/// instead of panicking — see
/// [`ProfileTree::unbalanced_exits`](crate::ProfileTree)), but callers
/// should treat any nonzero count as an instrumentation bug.
pub trait SpanSink {
    /// Opens a span for `phase`, nested under the currently open span.
    fn enter(&mut self, phase: &'static str);

    /// Closes the span for `phase`.
    fn exit(&mut self, phase: &'static str);

    /// Whether brackets are currently observed. Generic code may hoist
    /// this to skip span bookkeeping wholesale; [`NoopProfiler`] returns
    /// false so hoisted paths fold away.
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        true
    }

    /// Marks the start of one sampled work unit (a tracker activation) and
    /// returns whether this unit should be bracketed. A hot path calls
    /// this once per unit and elides *all* of the unit's brackets — outer
    /// and inner — when it returns false, so a sampling sink can suppress
    /// units for the cost of one rotor tick and no clock reads. Phases
    /// outside a unit (driver spans, rare maintenance spans like
    /// `window_reset`) are bracketed unconditionally and never sampled.
    ///
    /// The default forwards to [`is_enabled`](Self::is_enabled): plain
    /// sinks record every unit, and [`NoopProfiler`] reports false so the
    /// per-unit branch folds away entirely.
    #[inline(always)]
    fn unit_tick(&mut self) -> bool {
        self.is_enabled()
    }
}

/// The profiled-off sink: every method is an empty `#[inline(always)]`
/// body, so a tracker instantiated with it monomorphizes to exactly the
/// bare tracker — no clock reads, no stack pushes, nothing. The
/// `span_identity` proptest in `hydra-core` proves the outputs are
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProfiler;

impl SpanSink for NoopProfiler {
    #[inline(always)]
    fn enter(&mut self, _phase: &'static str) {}

    #[inline(always)]
    fn exit(&mut self, _phase: &'static str) {}

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
}

impl<S: SpanSink + ?Sized> SpanSink for &mut S {
    #[inline(always)]
    fn enter(&mut self, phase: &'static str) {
        (**self).enter(phase);
    }

    #[inline(always)]
    fn exit(&mut self, phase: &'static str) {
        (**self).exit(phase);
    }

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline(always)]
    fn unit_tick(&mut self) -> bool {
        (**self).unit_tick()
    }
}

/// The canonical phase vocabulary. Layers may invent additional names, but
/// everything the in-tree instrumentation emits is declared here so the
/// CLI, CI greps and docs share one spelling.
pub mod phase {
    /// One tracker activation, end to end (`hydra_core::Hydra`).
    pub const ACTIVATE: &str = "activate";
    /// GCT increment + aggregate-tracking bookkeeping.
    pub const GCT_LOOKUP: &str = "gct_lookup";
    /// RCC lookup, including the in-place hit path.
    pub const RCC_PROBE: &str = "rcc_probe";
    /// RCC insert + eviction write-back after a miss.
    pub const RCC_FILL: &str = "rcc_fill";
    /// RCT read from DRAM + parity verification (and the no-RCC RMW).
    pub const RCT_ACCESS: &str = "rct_access";
    /// GCT saturation spill: group init in the RCT.
    pub const SPILL: &str = "spill";
    /// Mitigation issue bookkeeping (request push + counters).
    pub const MITIGATION: &str = "mitigation";
    /// Tracking-window reset (SRAM clears + re-keying).
    pub const WINDOW_RESET: &str = "window_reset";
    /// One activation-level simulation run (`hydra_sim`).
    pub const SIM: &str = "sim";
    /// Per-window stats snapshot at a window boundary (`hydra_sim`).
    pub const WINDOW_SNAPSHOT: &str = "window_snapshot";
    /// One daemon shard ingest batch (`hydra_server`).
    pub const INGEST: &str = "ingest";
    /// One daemon shard stats publish (`hydra_server`).
    pub const PUBLISH: &str = "publish";

    /// The seven tracker inner-loop phases, in hot-path order. The CI
    /// `profile-smoke` job greps the folded export for every one of these.
    pub const TRACKER_PHASES: [&str; 7] = [
        GCT_LOOKUP,
        RCC_PROBE,
        RCC_FILL,
        RCT_ACCESS,
        SPILL,
        MITIGATION,
        WINDOW_RESET,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_reports_disabled_and_accepts_brackets() {
        let mut sink = NoopProfiler;
        assert!(!sink.is_enabled());
        sink.enter(phase::ACTIVATE);
        sink.exit(phase::ACTIVATE);
    }

    #[test]
    fn mut_ref_forwards() {
        struct Counting(u32);
        impl SpanSink for Counting {
            fn enter(&mut self, _p: &'static str) {
                self.0 += 1;
            }
            fn exit(&mut self, _p: &'static str) {
                self.0 += 1;
            }
        }
        fn drive<S: SpanSink>(mut sink: S) -> bool {
            sink.enter(phase::SIM);
            sink.exit(phase::SIM);
            sink.is_enabled()
        }
        let mut c = Counting(0);
        assert!(drive(&mut c));
        assert_eq!(c.0, 2);
    }

    #[test]
    fn tracker_phase_list_is_distinct() {
        let mut names = phase::TRACKER_PHASES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), phase::TRACKER_PHASES.len());
    }
}
