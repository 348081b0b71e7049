//! Timing shims.
//!
//! For the traced run, each shim implements one layer's public trait around
//! the real implementation and adds the host time spent inside every call
//! to a shared [`LayerClock`]. The spans stay in memory (two counters per
//! layer) and are read once the run ends. The shims change no simulated
//! output; the traced run checks that against the untraced one.
//!
//! The untraced run uses only [`LapTrace`]: a counter per trace op and a
//! clock read every [`LAP_OPS`] ops, so a long simulation can be timed in
//! short, deterministic laps.

use hydra_types::addr::RowAddr;
use hydra_types::clock::MemCycle;
use hydra_types::deadline::Stopwatch;
use hydra_types::tracker::{ActivationKind, ActivationTracker, TrackerResponse};
use hydra_workloads::trace::{TraceOp, TraceSource};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Calls into one layer and the host time they took.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl LayerClock {
    /// A fresh clock, shared between the shims of one layer.
    pub fn shared() -> Rc<LayerClock> {
        Rc::new(LayerClock::default())
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        self.time_ops(1, f)
    }

    /// Times `f`, one call into the layer that did `ops` operations.
    pub fn time_ops<R>(&self, ops: u64, f: impl FnOnce() -> R) -> R {
        let sw = Stopwatch::start();
        let out = f();
        self.nanos.set(self.nanos.get() + sw.elapsed_nanos());
        self.calls.set(self.calls.get() + ops);
        out
    }

    /// Calls (or operations) recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host seconds inside the layer.
    pub fn secs(&self) -> f64 {
        crate::host::secs(self.nanos.get())
    }

    /// Host nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.nanos.get() as f64 / self.calls() as f64
        }
    }
}

/// Trace ops, summed over every core of a simulation, per lap.
pub const LAP_OPS: u64 = 4096;

/// Lap marks of one simulation: the host time at every [`LAP_OPS`]-th
/// trace op drawn by any core. The cores draw ops in a deterministic
/// order, so lap `k` covers the same simulated work in every repeat.
#[derive(Debug)]
pub struct LapClock {
    ops: Cell<u64>,
    start: Cell<Stopwatch>,
    marks: RefCell<Vec<u64>>,
}

impl LapClock {
    /// A fresh clock, shared between the [`LapTrace`]s of one simulation.
    pub fn shared() -> Rc<LapClock> {
        Rc::new(LapClock {
            ops: Cell::new(0),
            start: Cell::new(Stopwatch::start()),
            marks: RefCell::new(Vec::new()),
        })
    }

    /// Starts the first lap now.
    pub fn start(&self) {
        self.ops.set(0);
        self.marks.borrow_mut().clear();
        self.start.set(Stopwatch::start());
    }

    fn tick(&self) {
        let ops = self.ops.get() + 1;
        self.ops.set(ops);
        if ops.is_multiple_of(LAP_OPS) {
            self.marks
                .borrow_mut()
                .push(self.start.get().elapsed_nanos());
        }
    }

    /// Ends the last lap now and returns every lap's host seconds.
    pub fn finish(&self) -> Vec<f64> {
        let end = self.start.get().elapsed_nanos();
        let mut previous = 0;
        self.marks
            .borrow()
            .iter()
            .chain(std::iter::once(&end))
            .map(|&mark| {
                let lap = crate::host::secs(mark.saturating_sub(previous));
                previous = mark;
                lap
            })
            .collect()
    }
}

/// A [`TraceSource`] that counts the wrapped generator's ops on a
/// [`LapClock`].
pub struct LapTrace<T> {
    inner: T,
    laps: Rc<LapClock>,
}

impl<T: TraceSource> LapTrace<T> {
    /// Wraps `inner`, counting its ops on `laps`.
    pub fn new(inner: T, laps: &Rc<LapClock>) -> Self {
        LapTrace {
            inner,
            laps: Rc::clone(laps),
        }
    }
}

impl<T: TraceSource> TraceSource for LapTrace<T> {
    fn next_op(&mut self) -> TraceOp {
        self.laps.tick();
        self.inner.next_op()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`TraceSource`] that times every `next_op` of the wrapped generator.
pub struct TimedTrace<T> {
    inner: T,
    clock: Rc<LayerClock>,
}

impl<T: TraceSource> TimedTrace<T> {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: T, clock: &Rc<LayerClock>) -> Self {
        TimedTrace {
            inner,
            clock: Rc::clone(clock),
        }
    }
}

impl<T: TraceSource> TraceSource for TimedTrace<T> {
    fn next_op(&mut self) -> TraceOp {
        let inner = &mut self.inner;
        self.clock.time(|| inner.next_op())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// An [`ActivationTracker`] that times every call into the wrapped tracker.
///
/// The tracker sits behind a shared handle so the benchmark can read its
/// own statistics (e.g. `HydraStats`) after the simulator that owns the
/// shim has consumed it.
pub struct TimedTracker<T> {
    inner: Rc<RefCell<T>>,
    clock: Rc<LayerClock>,
    name: String,
}

impl<T: ActivationTracker> TimedTracker<T> {
    /// Wraps `inner`, charging its time to `clock`. Returns the shim and a
    /// handle to the tracker.
    pub fn new(inner: T, clock: &Rc<LayerClock>) -> (Self, Rc<RefCell<T>>) {
        let name = inner.name().to_string();
        let inner = Rc::new(RefCell::new(inner));
        let shim = TimedTracker {
            inner: Rc::clone(&inner),
            clock: Rc::clone(clock),
            name,
        };
        (shim, inner)
    }
}

impl<T: ActivationTracker> ActivationTracker for TimedTracker<T> {
    fn on_activation(
        &mut self,
        row: RowAddr,
        now: MemCycle,
        kind: ActivationKind,
    ) -> TrackerResponse {
        let mut inner = self.inner.borrow_mut();
        self.clock.time(|| inner.on_activation(row, now, kind))
    }

    fn reset_window(&mut self, now: MemCycle) {
        let mut inner = self.inner.borrow_mut();
        self.clock.time(|| inner.reset_window(now));
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sram_bytes(&self) -> u64 {
        self.inner.borrow().sram_bytes()
    }
}
