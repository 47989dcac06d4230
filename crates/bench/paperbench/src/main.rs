//! `paperbench` — the repository benchmark.
//!
//! Runs one workload of the paper's verifier from a seed and prints its
//! metrics, one per line, then a one-line JSON result:
//!
//! ```text
//! paperbench --workload <steady|detect|stabilize> --seed <n> --seconds <s> --trace <0|1>
//!            [--threads <t>] [--smoke]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a separate traced run,
//! whose spans are written to `spans/<workload>-seed<n>.jsonl` in this
//! package. See `README.md` for the workloads and the metrics.

#![forbid(unsafe_code)]

mod detect;
mod layers;
mod report;
mod stabilize;
mod steady;
mod trace;

use layers::Ctx;
use report::{metric, peak_rss_mib};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: paperbench --workload <steady|detect|stabilize> --seed <n> \
                     --seconds <s> --trace <0|1> [--threads <t>] [--smoke]";

/// Per-layer metrics printed but left out of the result line, because they
/// read 0 on this envelope: there is no halo exchange, and an observed
/// round runs as its own dispatch, whose closing wait lands in
/// `engine.dispatch_ns` rather than `engine.barrier_ns`.
const UNREPORTED_LAYERS: [&str; 2] = ["engine.barrier_ns", "engine.exchange_ns"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = smst_engine::default_threads();
    let mut smoke = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--threads" => {
                threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "steady" => steady::run,
        "detect" => detect::run,
        "stabilize" => stabilize::run,
        other => {
            eprintln!("paperbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: args.threads,
        smoke: args.smoke,
        tr: Tracer::new(args.trace),
    };
    let mut out = run(&mut ctx);

    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tr.write_jsonl(&path) {
            eprintln!("paperbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
        out.result = out
            .report
            .iter()
            .filter(|m| !UNREPORTED_LAYERS.contains(&m.name))
            .cloned()
            .collect();
    } else {
        let rss = match out.peak_rss_mib.map_or_else(peak_rss_mib, Ok) {
            Ok(rss) => rss,
            Err(e) => {
                eprintln!("paperbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        out.report.push(metric("peak_rss_mb", rss, "MiB"));
        out.result.push(metric("peak_rss_mb", rss, "MiB"));
    }
    out.check(out.result.iter().all(|m| m.value.is_finite()), || {
        "a metric is not a finite number".into()
    });
    out.print(&args.workload);
    ExitCode::SUCCESS
}
