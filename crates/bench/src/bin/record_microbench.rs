//! Pipes `cargo bench` output into `BENCH_results.json`.
//!
//! Reads the offline criterion harness's stdout on stdin, echoes it
//! through unchanged, and records every
//! `bench: <name> ... <mean> <unit>/iter (<iters> iters)` line as a
//! `<name>_ns_per_iter` metric via [`bicord_bench::PerfRecorder`].
//!
//! Usage:
//!
//! ```text
//! cargo bench -q -p bicord-bench --bench microbench -- medium \
//!     | cargo run -p bicord-bench --bin record_microbench -- medium_microbench
//! ```
//!
//! The optional first argument names the experiment (default
//! `microbench`); `--quick` tags the record as a quick run.
//! Smoke lines (`... smoke ok`) carry no number and are skipped.

use std::io::BufRead;

use bicord_bench::PerfRecorder;

/// Parses one harness line into `(name, nanoseconds per iteration)`.
fn parse_bench_line(line: &str) -> Option<(String, f64)> {
    let rest = line.strip_prefix("bench: ")?;
    let (name, timing) = rest.split_once(" ... ")?;
    let mut parts = timing.split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let unit = parts.next()?.strip_suffix("/iter")?;
    let ns = match unit {
        "s" => value * 1e9,
        "ms" => value * 1e6,
        "µs" | "us" => value * 1e3,
        "ns" => value,
        _ => return None,
    };
    Some((name.to_string(), ns))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .unwrap_or_else(|| "microbench".to_string());
    let quick = args.iter().any(|a| a == "--quick");
    let mut perf = PerfRecorder::start(&experiment, quick);
    let mut benches = 0usize;
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("stdin should be readable");
        println!("{line}");
        if let Some((name, ns)) = parse_bench_line(&line) {
            perf.metric(&format!("{name}_ns_per_iter"), ns);
            benches += 1;
        }
    }
    perf.cells(benches);
    if benches == 0 {
        eprintln!("record_microbench: no bench lines seen; nothing recorded");
        return;
    }
    perf.finish();
}
