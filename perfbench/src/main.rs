//! Benchmark of the NRP workspace: offline embedding (`embed-sbm`) and the
//! `nrp_serve` daemon under hot-cache and cold-cache traffic (`serve-hot`,
//! `serve-cold`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload embed-sbm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root.  Inputs are generated from `--seed`; the
//! program under test sees only the generated files.  Every run checks its
//! outputs and exits non-zero, without a result line, when a check fails.
//! The last line of standard output is the result object; `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics timed
//! around calls into each layer's public functions.

mod embed;
mod load;
mod report;
mod serve;

use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <embed-sbm|serve-hot|serve-cold> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let report: Report = match args.workload.as_str() {
        "embed-sbm" => embed::run(&args)?,
        "serve-hot" => serve::run(&args, &serve::HOT)?,
        "serve-cold" => serve::run(&args, &serve::COLD)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    report.print(args.trace)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
