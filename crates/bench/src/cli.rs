//! Shared command-line handling for the regeneration binaries.
//!
//! Every `bicord-bench` binary accepts the same small flag set; parsing
//! lives here so the binaries stay one-screen experiment scripts:
//!
//! ```text
//! <binary> [--quick|--full] [--threads N] [--trace PATH] [--out PATH]
//!
//!   --quick        shortened sweep (smoke-test scale)
//!   --full         paper-scale sweep (the default; rejects --quick)
//!   --threads N    worker threads for the parallel harness
//!                  (sets BICORD_THREADS)
//!   --trace PATH   write a JSONL event timeline of one representative
//!                  run (docs/OBSERVABILITY.md)
//!   --out PATH     performance-record file (sets BICORD_BENCH_JSON;
//!                  `0`/`off` disables)
//! ```
//!
//! Flag conflicts are **errors**, never silently resolved: `--quick`
//! with `--full`, any flag given twice, and a flag in the place of a
//! flag's value (`--trace --quick`) all fail parsing with a message
//! naming the conflict.
//!
//! The parsed `quick` flag is the one source of the run's scale: the
//! binaries size their sweeps with [`BenchCli::run_duration`] and
//! [`BenchCli::run_count`] and tag their perf record with it via
//! [`crate::PerfRecorder::start`]. Sweep specs under `specs/` are run by
//! `bicord sweep`, not by these binaries.
//!
//! Call [`BenchCli::parse_or_exit`] first thing in `main`, then
//! [`BenchCli::apply`] before the first simulation, and — for binaries
//! that support timelines — [`BenchCli::maybe_trace`] with a
//! representative config of the sweep.

use std::path::PathBuf;

use bicord_scenario::config::{Mode, SimConfig};
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::obs::{JsonlSink, TraceHeader};
use bicord_sim::SimDuration;

/// Parsed common bench flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchCli {
    /// Run the shortened sweep.
    pub quick: bool,
    /// Worker-thread override for `bicord_sim::par`.
    pub threads: Option<usize>,
    /// Where to write the JSONL timeline of one representative run.
    pub trace: Option<PathBuf>,
    /// Where to append the machine-readable performance record.
    pub out: Option<PathBuf>,
}

/// The mode label used in trace headers (`"bicord"`, `"ecc"`, ...).
pub fn mode_label(mode: &Mode) -> &'static str {
    match mode {
        Mode::Bicord => "bicord",
        Mode::Ecc(_) => "ecc",
        Mode::Unprotected => "unprotected",
        Mode::SignalingTrial { .. } => "signaling_trial",
    }
}

impl BenchCli {
    /// Parses `std::env::args()`; prints usage and exits on `--help` or
    /// any error.
    pub fn parse_or_exit(binary: &str) -> BenchCli {
        match BenchCli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) if e == "help" => {
                println!("{}", usage(binary));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", usage(binary));
                std::process::exit(2);
            }
        }
    }

    fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        let mut full = false;
        let mut seen: Vec<String> = Vec::new();
        while let Some(arg) = args.next() {
            // Every flag is single-occurrence; a repeat is a conflict the
            // user should resolve, not a silent last-one-wins.
            if arg.starts_with("--") && arg != "--help" {
                if seen.contains(&arg) {
                    return Err(format!("{arg} given more than once"));
                }
                seen.push(arg.clone());
            }
            let mut value = |name: &str| match args.next() {
                None => Err(format!("{name} requires a value")),
                Some(v) if v.starts_with("--") => {
                    Err(format!("{name} requires a value, but got the flag '{v}'"))
                }
                Some(v) => Ok(v),
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--full" => full = true,
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if n == 0 {
                        return Err("--threads wants at least 1".to_string());
                    }
                    cli.threads = Some(n);
                }
                "--trace" => cli.trace = Some(PathBuf::from(value("--trace")?)),
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--help" | "-h" => return Err("help".to_string()),
                other => return Err(format!("unknown option '{other}' (try --help)")),
            }
        }
        if cli.quick && full {
            return Err("--quick and --full are mutually exclusive".to_string());
        }
        Ok(cli)
    }

    /// Picks the full or quick variant of a run length.
    pub fn run_duration(&self, full_secs: u64, quick_secs: u64) -> SimDuration {
        SimDuration::from_secs(if self.quick { quick_secs } else { full_secs })
    }

    /// Picks the full or quick variant of a repetition/trial count.
    pub fn run_count(&self, full: u32, quick: u32) -> u32 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Applies the environment-variable-backed options. Must run before
    /// the first `parallel_map` call (the worker pool reads
    /// `BICORD_THREADS` once).
    pub fn apply(&self) {
        if let Some(n) = self.threads {
            std::env::set_var("BICORD_THREADS", n.to_string());
        }
        if let Some(out) = &self.out {
            std::env::set_var("BICORD_BENCH_JSON", out.as_os_str());
        }
    }

    /// If `--trace` was given, runs `config` once with a [`JsonlSink`]
    /// attached and writes the timeline. The traced run is a dedicated
    /// extra simulation — single-threaded by construction — so the file
    /// is bitwise identical for any `--threads` value, and the sweep's
    /// own results are untouched.
    ///
    /// I/O errors are reported on stderr but never fail the bench.
    pub fn maybe_trace(&self, experiment: &str, config: SimConfig) {
        let Some(path) = &self.trace else {
            return;
        };
        let header = TraceHeader::new(
            config.seed,
            mode_label(&config.mode),
            config.duration.as_micros(),
        );
        let mut sink = match JsonlSink::create(path, &header) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warning: could not create trace {}: {e}", path.display());
                return;
            }
        };
        match CoexistenceSim::with_sink(config, &mut sink) {
            Ok(sim) => {
                sim.run();
            }
            Err(e) => {
                eprintln!("warning: trace run ({experiment}) rejected its config: {e}");
                return;
            }
        }
        match sink.finish() {
            Ok(events) => eprintln!("trace: {events} events -> {}", path.display()),
            Err(e) => eprintln!("warning: trace write failed: {e}"),
        }
    }
}

fn usage(binary: &str) -> String {
    format!(
        "{binary} — regenerate one table/figure of the BiCord paper

USAGE:
  {binary} [--quick|--full] [--threads N] [--trace PATH] [--out PATH]

OPTIONS:
  --quick        shortened sweep (smoke-test scale)
  --full         paper-scale sweep (the default)
  --threads N    worker threads (sets BICORD_THREADS)
  --trace PATH   JSONL event timeline of one representative run
  --out PATH     performance-record file (sets BICORD_BENCH_JSON)
  --help         this text"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_full_scale() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, BenchCli::default());
        assert!(!cli.quick);
    }

    #[test]
    fn all_flags_parse() {
        let cli = parse(&[
            "--quick",
            "--threads",
            "4",
            "--trace",
            "t.jsonl",
            "--out",
            "p.json",
        ])
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("p.json")));
    }

    #[test]
    fn quick_and_full_conflict() {
        assert!(parse(&["--full"]).is_ok());
        assert!(parse(&["--quick", "--full"]).is_err());
    }

    #[test]
    fn repeated_flags_are_conflicts_not_last_one_wins() {
        let err = parse(&["--out", "a.json", "--out", "b.json"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(err.contains("more than once"), "{err}");
        assert!(parse(&["--threads", "2", "--threads", "4"]).is_err());
        assert!(parse(&["--quick", "--quick"]).is_err());
    }

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        let err = parse(&["--trace", "--quick"]).unwrap_err();
        assert!(
            err.contains("--trace") && err.contains("'--quick'"),
            "{err}"
        );
        let err = parse(&["--out", "--threads", "2"]).unwrap_err();
        assert!(
            err.contains("--out") && err.contains("'--threads'"),
            "{err}"
        );
        assert!(parse(&["--threads", "--quick"]).is_err());
        // A value that merely starts with one dash is still a value.
        let cli = parse(&["--trace", "-t.jsonl"]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some(std::path::Path::new("-t.jsonl")));
    }

    #[test]
    fn scale_follows_the_parsed_quick_flag() {
        let full = parse(&[]).unwrap();
        assert_eq!(full.run_count(600, 60), 600);
        assert_eq!(full.run_duration(60, 5), SimDuration::from_secs(60));
        let quick = parse(&["--trace", "t.jsonl", "--quick"]).unwrap();
        assert_eq!(quick.run_count(600, 60), 60);
        assert_eq!(quick.run_duration(60, 5), SimDuration::from_secs(5));
    }

    #[test]
    fn spec_flags_are_unknown_options() {
        for flag in ["--spec", "--shard", "--cell-timeout", "--max-retries"] {
            let err = parse(&[flag, "x"]).unwrap_err();
            assert!(
                err.contains("unknown option") && err.contains(flag),
                "{err}"
            );
        }
    }

    #[test]
    fn bad_inputs_are_errors() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn usage_names_no_sweep_flags() {
        let text = usage("multi_node");
        assert!(text.contains("--quick") && text.contains("--out"), "{text}");
        assert!(
            !text.contains("--spec") && !text.contains("--shard"),
            "{text}"
        );
    }

    #[test]
    fn mode_labels_cover_all_modes() {
        use bicord_scenario::geometry::Location;
        let b = SimConfig::bicord(Location::A, 1);
        assert_eq!(mode_label(&b.mode), "bicord");
        let e = SimConfig::ecc(Location::A, 1, SimDuration::from_millis(20));
        assert_eq!(mode_label(&e.mode), "ecc");
        let u = SimConfig::unprotected(Location::A, 1);
        assert_eq!(mode_label(&u.mode), "unprotected");
    }
}
