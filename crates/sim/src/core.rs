//! ROB-occupancy core model.
//!
//! Each core retires up to `fetch_width` instructions per CPU cycle. A
//! demand read (LLC miss) occupies an MSHR and the core may only run
//! `rob_size` instructions past the *oldest* outstanding miss before it
//! stalls — the mechanism that converts memory latency and bandwidth into
//! IPC loss. Writes are fire-and-forget through the write queue. This is
//! the standard trace-driven approximation of the paper's 8-wide-window OoO
//! cores (Table 2: 160-entry ROB, fetch/retire width 4).
//!
//! **Sleeping.** A tick that retires nothing because the core is blocked on
//! its oldest miss (ROB window exhausted behind it, or every MSHR busy with
//! a read pending) would repeat itself every cycle until that miss's data
//! arrives. The core then sleeps until [`CoreModel::wake_at`]: the miss's
//! data-ready cycle, or — not yet known — until [`CoreModel::data_ready`]
//! delivers it. Ticks before it return at once; the cycles slept are
//! still counted as stall cycles when the core wakes.

use crate::controller::MemController;
use hydra_types::clock::MemCycle;
use hydra_workloads::trace::{TraceOp, TraceSource};
use std::collections::VecDeque;

/// One outstanding demand read.
#[derive(Debug, Clone, Copy)]
struct Miss {
    /// Request id returned by the controller.
    id: u64,
    /// Instructions retired when the read issued.
    retired_at_issue: u64,
    /// Data-ready cycle; `MemCycle::MAX` until the controller reports it.
    ready_at: MemCycle,
}

/// One simulated core.
pub struct CoreModel {
    id: usize,
    trace: Box<dyn TraceSource>,
    rob_size: u64,
    fetch_per_mem_cycle: u32,
    max_outstanding: usize,
    target_instructions: u64,
    retired: u64,
    gap_remaining: u32,
    /// The memory op whose gap has been consumed but which has not yet been
    /// accepted by the controller (backpressure), with its channel.
    pending: Option<(TraceOp, u8)>,
    /// Outstanding misses, oldest first.
    outstanding: VecDeque<Miss>,
    stall_cycles: u64,
    /// Ticks before this cycle cannot make progress; 0 while awake.
    wake_at: MemCycle,
    /// The cycle of the tick that put the core to sleep.
    slept_at: MemCycle,
}

impl CoreModel {
    /// Creates a core replaying `trace`.
    pub fn new(
        id: usize,
        trace: Box<dyn TraceSource>,
        rob_size: u32,
        fetch_width: u32,
        cpu_per_mem_cycle: u32,
        max_outstanding: usize,
        target_instructions: u64,
    ) -> Self {
        CoreModel {
            id,
            trace,
            rob_size: u64::from(rob_size),
            fetch_per_mem_cycle: fetch_width * cpu_per_mem_cycle,
            max_outstanding,
            target_instructions,
            retired: 0,
            gap_remaining: 0,
            pending: None,
            outstanding: VecDeque::new(),
            stall_cycles: 0,
            wake_at: 0,
            slept_at: 0,
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True once the instruction budget is met.
    pub fn is_done(&self) -> bool {
        self.retired >= self.target_instructions
    }

    /// Memory cycles in which the core could not retire anything (cycles
    /// of a sleep in progress are added when the core wakes).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// The earliest cycle whose tick can make progress: ticks before it
    /// are no-ops. At most the current cycle while awake;
    /// `MemCycle::MAX` while waiting for a completion not yet reported.
    pub fn wake_at(&self) -> MemCycle {
        self.wake_at
    }

    /// Records a completed read (called by the system when the controller
    /// reports it). Wakes the core at `at` if it sleeps on this read.
    pub fn data_ready(&mut self, request_id: u64, at: MemCycle) {
        if let Some(miss) = self.outstanding.iter_mut().find(|m| m.id == request_id) {
            miss.ready_at = at;
        }
        if self.wake_at == MemCycle::MAX
            && self.outstanding.front().is_some_and(|m| m.id == request_id)
        {
            self.wake_at = at;
        }
    }

    /// The channel of the next memory operation this core will issue
    /// (fetching it from the trace if necessary). The system uses this to
    /// hand the core the right channel's controller each cycle.
    pub fn next_op_channel(&mut self, geometry: &hydra_types::MemGeometry) -> u8 {
        let (_, channel) = *self.pending.get_or_insert_with(|| {
            let op = self.trace.next_op();
            self.gap_remaining += op.gap;
            (
                TraceOp { gap: 0, ..op },
                geometry.row_of_line(op.addr).channel,
            )
        });
        channel
    }

    /// Retires completed misses whose data has arrived by `now`.
    fn retire_ready_misses(&mut self, now: MemCycle) {
        while self.outstanding.front().is_some_and(|m| m.ready_at <= now) {
            self.outstanding.pop_front();
        }
    }

    /// True if the ROB window is exhausted behind the oldest miss.
    fn rob_blocked(&self) -> bool {
        self.outstanding
            .front()
            .is_some_and(|m| self.retired - m.retired_at_issue >= self.rob_size)
    }

    /// True if nothing can retire before the oldest miss completes: the
    /// ROB is exhausted behind it, or a read for `channel` waits on a full
    /// set of MSHRs.
    fn blocked_on_oldest_miss(&self, channel: u8) -> bool {
        let mshrs_full = self.outstanding.len() >= self.max_outstanding
            && matches!(self.pending, Some((op, ch)) if !op.is_write && ch == channel);
        self.rob_blocked() || mshrs_full
    }

    /// Advances one memory cycle, retiring instructions and issuing memory
    /// operations into `controller`. Operations whose address belongs to a
    /// different channel than `controller` stay pending until the system
    /// hands this core the owning channel's controller.
    ///
    /// Cycles must be ticked in increasing order; cycles before
    /// [`Self::wake_at`] may be skipped, since their ticks do nothing.
    pub fn tick(&mut self, now: MemCycle, controller: &mut MemController) {
        if self.is_done() || now < self.wake_at {
            return;
        }
        if self.wake_at > 0 {
            // Every cycle slept through was a stall.
            self.stall_cycles += now - self.slept_at - 1;
            self.wake_at = 0;
        }
        self.retire_ready_misses(now);
        let geometry = *controller.dram().geometry();
        let channel = controller.channel();
        let mut budget = self.fetch_per_mem_cycle;
        let mut progressed = false;
        while budget > 0 && !self.is_done() {
            if self.rob_blocked() {
                break;
            }
            // Burn compute instructions of the current gap.
            if self.gap_remaining > 0 {
                let n = self.gap_remaining.min(budget);
                self.gap_remaining -= n;
                self.retired += u64::from(n);
                budget -= n;
                progressed = true;
                continue;
            }
            // Fetch (or resume) the next memory op.
            let (op, op_channel) = match self.pending.take() {
                Some(pending) => pending,
                None => {
                    let op = self.trace.next_op();
                    let op_channel = geometry.row_of_line(op.addr).channel;
                    if op.gap > 0 {
                        self.gap_remaining = op.gap;
                        self.pending = Some((TraceOp { gap: 0, ..op }, op_channel));
                        continue;
                    }
                    (op, op_channel)
                }
            };
            if op_channel != channel {
                // Wrong channel this cycle: resume when the system routes us
                // to the owning controller.
                self.pending = Some((op, op_channel));
                break;
            }
            if op.is_write {
                if !controller.enqueue_write(op.addr, now) {
                    self.pending = Some((op, op_channel));
                    break;
                }
            } else {
                if self.outstanding.len() >= self.max_outstanding {
                    self.pending = Some((op, op_channel));
                    break;
                }
                match controller.enqueue_read(op.addr, self.id, now) {
                    Some(id) => self.outstanding.push_back(Miss {
                        id,
                        retired_at_issue: self.retired,
                        ready_at: MemCycle::MAX,
                    }),
                    None => {
                        self.pending = Some((op, op_channel));
                        break;
                    }
                }
            }
            self.retired += 1;
            budget -= 1;
            progressed = true;
        }
        if !progressed {
            self.stall_cycles += 1;
            if self.blocked_on_oldest_miss(channel) {
                self.slept_at = now;
                self.wake_at = self
                    .outstanding
                    .front()
                    .map_or(MemCycle::MAX, |m| m.ready_at);
            }
        }
    }
}

impl std::fmt::Debug for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreModel")
            .field("id", &self.id)
            .field("trace", &self.trace.name())
            .field("retired", &self.retired)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hydra_types::geometry::MemGeometry;
    use hydra_types::tracker::NullTracker;
    use hydra_types::RowAddr;
    use hydra_workloads::trace::ReplayTrace;

    fn core_with(ops: Vec<TraceOp>, target: u64) -> (CoreModel, MemController) {
        let config = SystemConfig::tiny_test();
        let controller = MemController::new(&config, 0, Box::new(NullTracker));
        let core = CoreModel::new(
            0,
            Box::new(ReplayTrace::new("test", ops)),
            config.rob_size,
            config.fetch_width,
            config.cpu_per_mem_cycle,
            config.max_outstanding_misses,
            target,
        );
        (core, controller)
    }

    fn run(core: &mut CoreModel, controller: &mut MemController, max_cycles: u64) -> u64 {
        let mut now = 0;
        while !core.is_done() && now < max_cycles {
            for done in controller.tick(now) {
                core.data_ready(done.id, done.done_at);
            }
            core.tick(now, controller);
            now += 1;
        }
        now
    }

    #[test]
    fn compute_bound_core_retires_at_full_width() {
        let geom = MemGeometry::tiny();
        // Huge gaps: essentially pure compute.
        let ops = vec![TraceOp::read(
            10_000,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 40_000);
        let cycles = run(&mut core, &mut ctrl, 100_000);
        // 8 instructions per memory cycle -> ~5000 cycles.
        assert!(cycles < 6_000, "took {cycles} cycles");
    }

    #[test]
    fn memory_bound_core_is_limited_by_dram() {
        let geom = MemGeometry::tiny();
        // Every instruction a row-conflicting read: two alternating rows.
        let ops = vec![
            TraceOp::read(0, geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0)),
            TraceOp::read(0, geom.line_of_row(RowAddr::new(0, 0, 0, 100), 0)),
        ];
        let (mut core, mut ctrl) = core_with(ops, 1_000);
        let cycles = run(&mut core, &mut ctrl, 1_000_000);
        // Bank conflicts cap throughput far below the 8-wide retire rate
        // (1000 instructions would take only 125 cycles compute-bound).
        assert!(cycles > 2_000, "took only {cycles} cycles");
        assert!(core.stall_cycles() > 0);
    }

    #[test]
    fn rob_limits_runahead_past_oldest_miss() {
        let geom = MemGeometry::tiny();
        // One read then pure compute: the core may run at most rob_size
        // instructions past the miss before stalling.
        let ops = vec![TraceOp::read(
            0,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 10_000);
        // Tick the core without ever ticking the controller: data never
        // arrives, so retirement must cap at read + min(gap runahead, rob).
        for now in 0..1_000 {
            core.tick(now, &mut ctrl);
        }
        // It can issue more reads (up to MSHR limit) but total runahead past
        // the first miss is bounded by the ROB.
        assert!(
            core.retired() <= 1 + core.rob_size,
            "retired {}",
            core.retired()
        );
    }

    #[test]
    fn writes_do_not_block_retirement() {
        let geom = MemGeometry::tiny();
        let ops = vec![TraceOp::write(
            1,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 2_000);
        let cycles = run(&mut core, &mut ctrl, 100_000);
        // Writes drain in the background; retirement proceeds at near full
        // width (each op is 1 compute + 1 write = 2 instructions).
        assert!(cycles < 10_000, "took {cycles} cycles");
    }

    #[test]
    fn skipping_a_sleeping_core_changes_nothing() {
        let geom = MemGeometry::tiny();
        let ops = vec![
            TraceOp::read(3, geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0)),
            TraceOp::read(0, geom.line_of_row(RowAddr::new(0, 0, 0, 100), 0)),
            TraceOp::write(2, geom.line_of_row(RowAddr::new(0, 0, 1, 7), 0)),
        ];
        let (mut stepped, mut stepped_ctrl) = core_with(ops.clone(), 5_000);
        let stepped_cycles = run(&mut stepped, &mut stepped_ctrl, 1_000_000);
        // Same run, but the core is ticked only once it is awake.
        let (mut core, mut ctrl) = core_with(ops, 5_000);
        let (mut now, mut ticks) = (0, 0);
        while !core.is_done() {
            for done in ctrl.tick(now) {
                core.data_ready(done.id, done.done_at);
            }
            if core.wake_at() <= now {
                core.tick(now, &mut ctrl);
                ticks += 1;
            }
            now += 1;
        }
        assert_eq!(now, stepped_cycles);
        assert_eq!(core.retired(), stepped.retired());
        assert_eq!(core.stall_cycles(), stepped.stall_cycles());
        assert!(core.stall_cycles() > 0);
        assert!(ticks < now, "the core never slept");
    }

    #[test]
    fn core_reports_done_exactly_at_target() {
        let geom = MemGeometry::tiny();
        let ops = vec![TraceOp::read(
            7,
            geom.line_of_row(RowAddr::new(0, 0, 0, 1), 0),
        )];
        let (mut core, mut ctrl) = core_with(ops, 100);
        run(&mut core, &mut ctrl, 1_000_000);
        assert!(core.is_done());
        assert!(core.retired() >= 100);
        assert!(core.retired() <= 108, "overshoot {}", core.retired());
    }
}
