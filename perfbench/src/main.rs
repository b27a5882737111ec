//! The serving benchmark: one command runs one named workload through the
//! public SampCert serving API, checks every answer and charge, and
//! prints the metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <count_open|count_saturate|durable_zipf|histogram_bulk>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with nothing but the harness's own timestamps and
//! prints the end-to-end metrics. `--trace 1` runs the workload four times
//! for a quarter of the time each — untraced, traced, traced, untraced —
//! and prints the per-layer metrics and the tracing overhead (traced p50
//! minus untraced p50).
//! Diagnostics (latency tail with sample counts, host steal, the reference
//! loop, generator lateness, every check) are printed as `#` lines before
//! the result line. A failed check sets `correct` to false and the exit
//! code to 1.

mod harness;
mod report;
mod trace;
mod workloads;

use report::Metric;
use workloads::{run_phase, Workload, TMP_DIR};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <count_open|count_saturate|durable_zipf|histogram_bulk> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run's outcome, ready to print.
struct Outcome {
    text: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tmp = std::path::Path::new(TMP_DIR);
    let phase = |traced, seconds| run_phase(args.workload, args.seed, seconds, traced, tmp);
    Ok(if args.trace {
        // Untraced, traced, traced, untraced: a quarter of the time each,
        // so a linear drift of the host cancels out of the overhead.
        let quarter = args.seconds / 4.0;
        let (a1, b1) = (phase(false, quarter)?, phase(true, quarter)?);
        let (b2, a2) = (phase(true, quarter)?, phase(false, quarter)?);
        let (plain, traced) = ([a1, a2], [b1, b2]);
        let mut text = String::new();
        for (label, p) in [
            ("untraced-1", &plain[0]),
            ("traced-1", &traced[0]),
            ("traced-2", &traced[1]),
            ("untraced-2", &plain[1]),
        ] {
            text += &report::diagnostics(args.workload, args.seed, label, p);
        }
        text += &report::span_table(&traced);
        let phases = plain.iter().chain(&traced);
        Outcome {
            text,
            correct: phases.clone().all(|p| p.checks.iter().all(|c| c.ok)),
            attempted: phases.clone().map(|p| p.attempted).sum(),
            failed: phases.map(|p| p.failed).sum(),
            metrics: report::per_layer(&plain, &traced),
        }
    } else {
        let p = phase(false, args.seconds)?;
        Outcome {
            text: report::diagnostics(args.workload, args.seed, "untraced", &p),
            correct: p.checks.iter().all(|c| c.ok),
            attempted: p.attempted,
            failed: p.failed,
            metrics: report::end_to_end(&p),
        }
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    // The journal directory is ours alone; remove it once empty.
    let _ = std::fs::remove_dir(TMP_DIR);
    match outcome {
        Ok(o) => {
            print!("{}", o.text);
            println!(
                "{}",
                report::json_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload durable_zipf --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::DurableZipf,
                seed: 9,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload count_open --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload count_open --seconds 1")).is_err());
        assert!(parse_args(&args(
            "--workload count_open --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    /// A short run of every workload in both modes prints every named
    /// metric with its unit, and every correctness check passes.
    #[test]
    fn smoke_every_workload_prints_every_metric_and_passes_its_checks() {
        for workload in Workload::ALL {
            for (trace, table) in [
                (false, &report::END_TO_END[..]),
                (true, &report::PER_LAYER[..]),
            ] {
                let o = run(&Args {
                    workload,
                    seed: 11,
                    seconds: 0.4,
                    trace,
                })
                .unwrap();
                assert!(o.correct, "{}: checks failed\n{}", workload.name(), o.text);
                assert!(o.attempted > 0, "{}: nothing attempted", workload.name());
                let names: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(names, table, "{} trace={trace}", workload.name());
                assert!(o.metrics.iter().all(|m| m.value.is_finite()));
                let line = report::json_line(o.correct, o.attempted, o.failed, &o.metrics);
                for (name, unit) in table {
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name} missing from {line}"
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert!(o.text.contains("check PASS"));
                // Buffers are sized up front: nothing may be dropped.
                assert!(o
                    .text
                    .lines()
                    .all(|l| !l.contains("latency") || l.ends_with("dropped=0")));
                if trace {
                    assert!(o.text.contains(" spans, 0 dropped"), "{}", o.text);
                }
            }
        }
    }
}
