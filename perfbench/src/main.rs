//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-out <file>]`
//!
//! Prints the generated inputs' properties, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! untraced, the per-layer metrics traced. A traced run writes its spans as
//! Chrome trace JSON to `--trace-out` (and the Recorder's metrics snapshot
//! next to it, when the workload attaches one).

use angel_perfbench::{run, Opts, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok(),
            "--trace" => traced = value == "1",
            "--trace-out" => trace_out = Some(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    let Some(outcome) = run(&workload, &Opts::timed(seed, seconds, traced)) else {
        usage()
    };

    for f in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    println!(
        "inputs: {}",
        serde_json::to_string(&serde_json::Value::Object(outcome.inputs.clone()))
            .unwrap_or_default()
    );
    if let (true, Some(path)) = (traced, trace_out) {
        let doc = serde_json::json!({
            "traceEvents": serde_json::Value::Array(outcome.trace_events.clone()),
            "inputs": serde_json::Value::Object(outcome.inputs.clone()),
        });
        let written = std::fs::write(&path, serde_json::to_string(&doc).unwrap_or_default())
            .and_then(|_| match &outcome.snapshot {
                Some(s) => std::fs::write(format!("{path}.metrics.json"), s),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json(traced)).unwrap_or_default()
    );
}
