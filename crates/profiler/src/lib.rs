//! Hot-path profiling plane: span instrumentation behind a zero-cost seam.
//!
//! The tracker hot path carries two permanent instrumentation seams —
//! `hydra_telemetry::EventSink` (what happened) and the server's metrics
//! sink (how the daemon behaves). This crate adds the third: **where the
//! time goes**. A [`SpanSink`] receives `enter`/`exit` bracket calls around
//! named phases; the default [`NoopProfiler`] compiles them away (no clock
//! reads, no branches — a profiled-off tracker is proven bit-identical to a
//! bare one by the `span_identity` proptest in `hydra-core`), while a
//! [`TreeProfiler`] timestamps every bracket with the monotonic
//! [`Stopwatch`](hydra_types::deadline::Stopwatch) and aggregates into a
//! call tree with per-node count / total / self-time / min / max.
//!
//! # Span model
//!
//! Phases are `&'static str` names (the canonical vocabulary lives in
//! [`phase`]). Spans nest lexically: `enter("activate")` followed by
//! `enter("rcc_probe")` puts `rcc_probe` *under* `activate` in the tree,
//! and layers compose because a [`TreeProfiler`] is a cheaply cloneable
//! handle onto shared state — the sim loop brackets `sim`, hands a clone to
//! the tracker, and the tracker's inner-loop phases land under the sim's
//! open span. Each worker thread owns its own `TreeProfiler` (the handle is
//! deliberately `!Send`); threads export plain [`ProfileTree`] values and
//! merge them, which is order-insensitive (commutative + associative with
//! the empty tree as identity — proptested in `tests/merge_laws.rs`).
//!
//! # Conservation
//!
//! Self-time is *derived*: `self = total − Σ children.total`, saturating.
//! Because children are measured strictly inside their parent's bracket and
//! the clock is monotonic, `Σ children.total ≤ total` holds for every node;
//! [`ProfileTree::check_conservation`] verifies it (and that the subtree's
//! self-times telescope back to the root total) the same way window deltas
//! are conservation-checked in `hydra-sim`.
//!
//! # Exports
//!
//! Three ways out: [`ProfileTree::render_table`] (human self/cumulative
//! table), [`ProfileTree::to_folded`] (folded-stack lines —
//! `sim;activate;rcc_probe 1234` — consumable by flamegraph.pl and
//! inferno), and [`ProfileTree::to_json`] (schema-versioned
//! [`PROFILE_SCHEMA_VERSION`] JSON). Folded output round-trips through
//! [`FoldedProfile::parse`] with totals preserved.
//!
//! # Measuring the profiler itself
//!
//! Attribution is only honest if the instrument's own cost is known:
//! [`OverheadReport::measure`] wall-clocks the same deterministic work
//! profiled-off vs profiled-on and reports the overhead fraction, which the
//! `hydra profile` harness prints alongside every run.

#![forbid(unsafe_code)]

mod export;
mod overhead;
mod sink;
mod tree;

pub use export::{FoldedProfile, PROFILE_SCHEMA_VERSION};
pub use overhead::OverheadReport;
pub use sink::{phase, NoopProfiler, SpanSink};
pub use tree::{ProfileNode, ProfileTree, TreeProfiler};
