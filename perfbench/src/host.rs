//! Host-noise readings, taken with `std::fs` from `/proc` only.
//!
//! Wall time alone cannot tell a slower program from a slower host. Every
//! run therefore records, next to its wall time, the on-CPU time the
//! scheduler charged to this process and the steal time the hypervisor
//! took from the whole machine (`/proc/stat`). On-CPU time is `utime +
//! stime` of `/proc/self/stat`, not `/proc/self/schedstat`: schedstat
//! covers only the main thread, and the arena runs its cells on batch
//! worker threads that have exited by the time the run ends. A run
//! whose throughput moved while `cpu_frac` stayed near 1 and steal stayed
//! flat was slowed by the host's own speed, not by preemption.

use hydra_types::deadline::Stopwatch;

/// One reading of the host clocks.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    wall: Stopwatch,
    cpu_ns: u64,
    steal_jiffies: u64,
}

/// The difference between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds this process was on a CPU.
    pub cpu_s: f64,
    /// Machine-wide steal time, in `/proc/stat` jiffies.
    pub steal_jiffies: u64,
}

impl HostDelta {
    /// On-CPU share of wall time (1.0 = never preempted).
    pub fn cpu_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }
}

impl HostSample {
    /// Reads the clocks now.
    pub fn now() -> Self {
        HostSample {
            wall: Stopwatch::start(),
            cpu_ns: on_cpu_ns(),
            steal_jiffies: steal_jiffies(),
        }
    }

    /// Clocks elapsed since this sample.
    pub fn elapsed(&self) -> HostDelta {
        HostDelta {
            wall_s: secs(self.wall.elapsed_nanos()),
            cpu_s: secs(on_cpu_ns().saturating_sub(self.cpu_ns)),
            steal_jiffies: steal_jiffies().saturating_sub(self.steal_jiffies),
        }
    }
}

/// Nanoseconds to seconds.
pub fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Host seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, secs(sw.elapsed_nanos()))
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// Nanoseconds this process, all threads including exited ones, has run
/// on a CPU: `utime + stime` of `/proc/self/stat`. 0 where unavailable.
fn on_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may itself
            // hold spaces; utime and stime are fields 14 and 15 overall.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * (1_000_000_000 / USER_HZ))
        })
        .unwrap_or(0)
}

/// Machine-wide steal jiffies: the eighth value of the `cpu` line of
/// `/proc/stat`. 0 where unavailable.
fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
