//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rec-large --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run builds one workload's serving stack from the repository's
//! public API, drives a load derived from `--seed` for `--seconds`, checks
//! every answer against the ground truth, and prints its metrics, one per
//! line, followed by a last line of JSON:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` re-runs the
//! workload with spans around every call into a layer, adds the layer
//! ledger, writes the spans to `perfbench/traces/` and reports the
//! per-layer metrics. A wrong row makes the run exit with status 1.

mod drive;
mod ledger;
mod measure;
mod stack;
mod trace;
mod truth;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::{Metric, Run};

const WORKLOADS: [&str; 3] = ["rec-large", "hot-wire", "rec-cluster"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric without samples is null.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::nproc()
    );
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let outcome = match args.workload.as_str() {
        "rec-large" => workloads::rec_large(&run, &mut tracer),
        "hot-wire" => workloads::hot_wire(&run, &mut tracer),
        _ => workloads::rec_cluster(&run, &mut tracer),
    };

    let metrics = if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(err) = trace::write_spans(&path, &tracer.spans) {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{} spans written to {}", tracer.spans.len(), path.display());
        println!("self time by span (calls, total ms, self ms):");
        for (name, (calls, total, own)) in trace::self_times(&tracer.spans) {
            println!("  {name:<24} {calls:>8} {total:>12.3} {own:>12.3}");
        }
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = outcome.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong rows", outcome.wrong);
        ExitCode::FAILURE
    }
}
