//! The BiCord simulator benchmark.
//!
//! ```text
//! perfbench --workload <coex_bicord|city_10k|sweep_mixed|coex_traced>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless > perfbench/expected.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! makes a separate traced run that prints the per-layer metrics. Each
//! run checks its outputs against `expected.json` and prints, last, one
//! JSON line with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and metrics.

mod city;
mod coex;
mod expected;
mod measure;
mod probes;
mod report;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::CountingAlloc;
use report::{Outcome, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 4] = [coex::BICORD, city::NAME, sweep::NAME, coex::TRACED];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <coex_bicord|city_10k|sweep_mixed|coex_traced> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
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

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Caps the sweep's worker threads at two (fewer on a one-core host);
/// the traced sweep uses one, so its cell timings do not overlap.
fn set_threads(traced_sweep: bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if traced_sweep { 1 } else { cores.min(2) };
    // Called before any thread starts, so no other thread reads the
    // environment while it changes.
    std::env::set_var("BICORD_THREADS", threads.to_string());
}

fn run(args: &Args) -> Result<Outcome, String> {
    let expected = expected::Expected::load()?;
    let scratch = Scratch::create()?;
    let tmp = scratch.0.as_path();
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match (args.workload.as_str(), args.trace) {
        (coex::BICORD, false) => coex::bicord(seed, secs, &expected),
        (coex::BICORD, true) => coex::bicord_traced(seed, secs, &expected),
        (coex::TRACED, false) => coex::traced(seed, secs, &expected, tmp),
        (coex::TRACED, true) => coex::traced_traced(seed, secs, &expected, tmp),
        (city::NAME, false) => city::run(seed, secs, &expected),
        (city::NAME, true) => city::traced(seed, secs, &expected),
        (sweep::NAME, false) => sweep::run(seed, secs, &expected, tmp),
        (sweep::NAME, true) => sweep::traced(seed, secs, &expected, tmp),
        (other, _) => return Err(format!("unknown workload {other}")),
    })
}

/// Prints a fresh `expected.json` computed from the current program.
fn bless() -> Result<(), String> {
    let scratch = Scratch::create()?;
    let entries = |pool: Vec<u64>, f: &dyn Fn(u64) -> Result<String, String>| {
        pool.into_iter()
            .map(|s| Ok(format!("    \"{s}\": {}", f(s)?)))
            .collect::<Result<Vec<_>, String>>()
            .map(|v| v.join(",\n"))
    };
    let coex_pairs: Vec<(u64, (String, String))> = coex::pool()
        .into_iter()
        .map(|s| coex::bless(s, &scratch.0).map(|p| (s, p)))
        .collect::<Result<_, _>>()?;
    let pick = |second: bool| {
        coex_pairs
            .iter()
            .map(|(s, (a, b))| format!("    \"{s}\": {}", if second { b } else { a }))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let city = entries(city::pool(), &|s| Ok(city::bless(s)))?;
    let sweep = entries(sweep::pool(), &|s| sweep::bless(s, &scratch.0))?;
    println!(
        "{{\n  \"{}\": {{\n{}\n  }},\n  \"{}\": {{\n{}\n  }},\n  \"{}\": {{\n{}\n  }},\n  \"{}\": {{\n{}\n  }}\n}}",
        coex::BICORD,
        pick(false),
        coex::TRACED,
        pick(true),
        city::NAME,
        city,
        sweep::NAME,
        sweep
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--bless") {
        set_threads(false);
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    set_threads(args.trace && args.workload == sweep::NAME);
    match run(&args) {
        Ok(outcome) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            report::print(&outcome, table);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
