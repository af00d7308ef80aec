//! End-to-end and per-layer benchmark of the scnn workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mnist-xeon --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `mnist-xeon` (traced collection on the xeon-like preset),
//! `zoo-sweep` (the four-preset sweep) and `serve-warm` (warm jobs
//! through the evaluation service). `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; either way the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The self-check (`cargo test`) runs every workload on tiny
//! inputs.

mod adapters;
mod digest;
mod layers;
mod profile;
mod report;
mod service_loop;
mod stats;
mod trace;
mod victim;
mod workloads;

use report::Outcome;
use std::error::Error;
use std::process::ExitCode;
use workloads::Args;

const USAGE: &str = "usage: scnn-perfbench --workload <mnist-xeon|zoo-sweep|serve-warm> \
--seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        paper_scale: true,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload and returns its outcome.
fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "mnist-xeon" => workloads::mnist_xeon::run(args, &mut out)?,
        "zoo-sweep" => workloads::zoo_sweep::run(args, &mut out)?,
        "serve-warm" => workloads::serve_warm::run(args, &mut out)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}").into()),
    }
    out.set("peak_rss_mb", workloads::peak_rss_mb());
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc (available_parallelism) = {}; workload {} seed {} seconds {} trace {}",
        args.workers(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.render_lines());
    match outcome.result_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_core::json;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn every_workload_completes_at_tiny_scale_and_prints_every_metric() {
        // One test, so the process-wide tracing switches are never
        // flipped by two workloads at once.
        for workload in ["mnist-xeon", "zoo-sweep", "serve-warm"] {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_owned(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    paper_scale: false,
                };
                let outcome = run(&args).expect("the workload runs");
                assert!(
                    outcome.correct(),
                    "{workload} trace {trace}:\n{}",
                    outcome.render_lines()
                );
                let line = outcome.result_json(trace).expect("every metric measured");
                let doc = json::parse(&line).expect("the result line is JSON");
                assert_eq!(
                    doc.get("correct").and_then(json::Value::as_bool),
                    Some(true)
                );
                assert_eq!(doc.get("failed").and_then(json::Value::as_f64), Some(0.0));
                assert!(doc.get("attempted").and_then(json::Value::as_f64) >= Some(1.0));
                let metrics = doc.get("metrics").expect("metrics object");
                let table = if trace {
                    &report::PER_LAYER[..]
                } else {
                    &report::END_TO_END[..]
                };
                for (name, unit) in table {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                    assert!(m.get("value").and_then(json::Value::as_f64).is_some());
                    assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(*unit));
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "zoo-sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace, ok.paper_scale),
            (7, 3.0, true, true)
        );
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--verbose", "1"]).is_err());
        let unknown = Args {
            workload: "nope".to_owned(),
            ..ok
        };
        assert!(run(&unknown).is_err());
    }
}
