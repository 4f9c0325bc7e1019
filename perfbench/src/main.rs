//! End-to-end and per-layer benchmark of Approx-FIRAL selection.
//!
//! ```text
//! perfbench --workload <relax-bound|round-bound|serve-mutate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line (platform, kernel plan, samples, CPU and steal
//! time over the run) and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod common;
mod procfs;
mod report;
mod scenario;
mod serial;
mod serve;
mod stats;

use std::process::ExitCode;

use report::{quote, RunClock};

const USAGE: &str = "usage: perfbench --workload <relax-bound|round-bound|serve-mutate> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
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
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock = RunClock::start();
    let mut outcome = match args.workload.as_str() {
        "relax-bound" => serial::run(&serial::RELAX_BOUND, args.seed, args.seconds, args.trace),
        "round-bound" => serial::run(&serial::ROUND_BOUND, args.seed, args.seconds, args.trace),
        "serve-mutate" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.context("workload", quote(&args.workload));
    outcome.context("seed", args.seed.to_string());
    outcome.context("trace", args.trace.to_string());
    outcome.context("process", clock.json());
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    report::print(&outcome, correct);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload relax-bound --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("relax-bound", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(
            parse("--workload x --seed 1 --seconds 5").is_err(),
            "missing --trace"
        );
        assert!(parse("--workload x --seed -1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 0 --bogus 1").is_err());
        assert!(parse("--workload").is_err(), "flag without a value");
    }
}
