//! The repository benchmark: end-to-end and per-layer metrics of the Hydra
//! reproduction on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <system_fig5|hydra_stream|arena_race> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about `--seconds`
//! host seconds, checks every simulated output, and prints one JSON object
//! as its last line of standard output. `--trace 0` prints the end-to-end
//! metrics, measured with no instrumentation; `--trace 1` prints the
//! per-layer metrics of a run whose calls into the workload generators and
//! the trackers go through timing shims (see `shim`). `METRICS.md` maps
//! each per-layer metric to the end-to-end metric it should move.

#![forbid(unsafe_code)]

mod arena_race;
mod host;
mod hydra_stream;
mod report;
mod shim;
mod system_fig5;

use report::Outcome;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hydra-perfbench --workload <system_fig5|hydra_stream|arena_race> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = host::HostSample::now();
    let mut outcome: Outcome = match args.workload.as_str() {
        "system_fig5" => system_fig5::run(args.seed, args.seconds, args.trace),
        "hydra_stream" => hydra_stream::run(args.seed, args.seconds, args.trace),
        "arena_race" => arena_race::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = start.elapsed();
    outcome.set_if_unset("peak_rss_mb", host::peak_rss_mb());
    outcome.set(
        "pass_frac",
        1.0 - report::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.set("host.cpu_s", run.cpu_s);
    outcome.set("host.cpu_frac", run.cpu_frac());
    outcome.set("host.steal_jiffies", run.steal_jiffies as f64);
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "host: wall_s={:.3} cpu_s={:.3} cpu_frac={:.4} steal_jiffies={}",
        run.wall_s,
        run.cpu_s,
        run.cpu_frac(),
        run.steal_jiffies
    );
    println!("{}", outcome.json_line(args.trace));
    ExitCode::SUCCESS
}
