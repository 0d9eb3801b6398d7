//! # bicord-bench
//!
//! The regeneration harness: one binary per table/figure of the paper
//! (under `src/bin/`), plus Criterion micro-benchmarks (under `benches/`).
//!
//! Every binary accepts `--quick` to run a shortened sweep (useful for
//! smoke-testing the harness itself); without it, the full paper-scale
//! parameters are used. The flags are parsed once by [`BenchCli`], and
//! the parsed `quick` flag alone sizes the sweep and tags the perf
//! record.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_2` | Tables I & II (signaling precision/recall) |
//! | `fig3_csi` | Fig. 3 (CSI traces under noise / ZigBee packets) |
//! | `fig7_learning` | Fig. 7 (white-space staircase) |
//! | `fig8_iterations` | Fig. 8 (iterations to converge) |
//! | `fig9_whitespace` | Fig. 9 (converged white space + over-provision) |
//! | `fig10_comparison` | Fig. 10a/b/c (utilization, delay, throughput) |
//! | `fig11_parameters` | Fig. 11a–d (parameter study) |
//! | `fig12_mobility` | Fig. 12 (mobile scenarios) |
//! | `fig13_priority` | Fig. 13 (Wi-Fi traffic prioritisation) |
//! | `cti_accuracy` | Sec. VII-A accuracy numbers |
//! | `energy_cost` | Sec. VII-B energy overhead (analytic + measured) |
//! | `motivation_ctc` | Sec. III-A folding analysis + Sec. III-B CTC latency |
//! | `multi_node` | the Sec. VI multi-node extension (beyond the paper) |
//! | `ablations` | detector-rule and allocator-stabiliser ablations |
//! | `robustness_sweep` | fault-rate sweep (beyond the paper): PDR/delay/fallbacks under injected control-packet loss, CTS loss, and phantom CSI |
//! | `dense_city_scaling` | per-query medium cost vs dense-city world size (beyond the paper) |
//!
//! `multi_node`, `robustness_sweep`, `dense_city_scaling` and
//! `cti_accuracy` each have a scenario in the `bicord-sweep` registry
//! (the first two run their built-in grids through it). Spec files of
//! those scenarios (`specs/`), sharded or supervised, are run by
//! `bicord sweep --spec`.
//!
//! Set `BICORD_CSV_DIR=<dir>` to additionally export the main tables as
//! CSV for plotting.
//!
//! Every binary also appends a machine-readable performance record to
//! `BENCH_results.json` (override the path with `BICORD_BENCH_JSON`, or
//! set it to `0`/`off` to disable): wall-clock time, worker threads used,
//! cells run, and the experiment's key metric values — see
//! [`PerfRecorder`]. `bicord analyze diff-bench` compares those records
//! against `scripts/bench_baseline.json` under the perf-budget rules
//! (docs/ANALYTICS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cli::BenchCli;

use std::time::Instant;

use bicord_metrics::TextTable;
use bicord_sim::json::{self, Json};

/// The master seed shared by the regeneration binaries.
pub const BENCH_SEED: u64 = 20_210_705;

/// If the `BICORD_CSV_DIR` environment variable is set, writes `table` as
/// `<dir>/<name>.csv` (for plotting); errors are reported on stderr but
/// never fail the bench.
pub fn maybe_write_csv(name: &str, table: &TextTable) {
    let Ok(dir) = std::env::var("BICORD_CSV_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Collects one experiment's performance record and appends it to
/// `BENCH_results.json` on [`PerfRecorder::finish`].
///
/// The file is a JSON array with one single-line object per experiment:
/// `experiment`, `quick`, `threads`, `cells`, `wall_ms`, and a `metrics`
/// map of key result values. Re-running an experiment replaces its entry
/// (matched by name + quick flag), so the file accumulates the latest
/// record per experiment across bench invocations.
///
/// # Example
///
/// ```no_run
/// let cli = bicord_bench::BenchCli::parse_or_exit("fig10_replicated");
/// let mut perf = bicord_bench::PerfRecorder::start("fig10_replicated", cli.quick);
/// // ... run the experiment ...
/// perf.cells(40);
/// perf.metric("bicord_mean_utilization", 0.91);
/// perf.finish();
/// ```
#[derive(Debug)]
pub struct PerfRecorder {
    experiment: String,
    quick: bool,
    started: Instant,
    cells: usize,
    metrics: Vec<(String, f64)>,
}

impl PerfRecorder {
    /// Starts timing `experiment`; `quick` tags the record as a
    /// `--quick` run.
    pub fn start(experiment: &str, quick: bool) -> Self {
        PerfRecorder {
            experiment: experiment.to_string(),
            quick,
            started: Instant::now(),
            cells: 0,
            metrics: Vec::new(),
        }
    }

    /// Records how many independent `(seed, config)` cells the experiment
    /// ran.
    pub fn cells(&mut self, n: usize) {
        self.cells = n;
    }

    /// Records one key metric value. Non-finite values serialize as
    /// `null`.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Stops the clock and appends the record to the results file.
    ///
    /// I/O errors are reported on stderr but never fail the bench.
    pub fn finish(self) {
        let path = match std::env::var("BICORD_BENCH_JSON") {
            Ok(p) if p == "0" || p.eq_ignore_ascii_case("off") => return,
            Ok(p) => std::path::PathBuf::from(p),
            Err(_) => std::path::PathBuf::from("BENCH_results.json"),
        };
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let record = self.record(wall_ms, bicord_sim::par::num_threads());
        if let Err(e) = merge_record(&path, record) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("recorded perf entry in {}", path.display());
        }
    }

    /// The record as one JSON object; its `Display` is the file's
    /// single-line layout.
    fn record(&self, wall_ms: f64, threads: usize) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), Json::Float(*value)))
            .collect();
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("threads".to_string(), Json::Int(threads as i64)),
            ("cells".to_string(), Json::Int(self.cells as i64)),
            ("wall_ms".to_string(), Json::Float(wall_ms)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// Rewrites the results array with one record per line, replacing any
/// existing entry with the same `(experiment, quick)` as `record`, so the
/// file never holds two records under one key. An existing file that is
/// not a JSON array is left alone and reported as an error.
fn merge_record(path: &std::path::Path, record: Json) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text).map_err(std::io::Error::other)? {
            Json::Arr(entries) => entries,
            _ => return Err(std::io::Error::other("not a JSON array of records")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.retain(|e| {
        ["experiment", "quick"]
            .iter()
            .any(|key| e.get(key) != record.get(key))
    });
    entries.push(record);
    let lines: Vec<String> = entries.iter().map(Json::to_string).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_to_one_line() {
        let mut p = PerfRecorder::start("demo", true);
        p.cells(12);
        p.metric("utilization", 0.91);
        p.metric("broken", f64::NAN);
        let line = p.record(3.25, 4).to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"experiment\": \"demo\", \"quick\": true, \"threads\": 4, \
             \"cells\": 12, \"wall_ms\": 3.25, \"metrics\": \
             {\"utilization\": 0.91, \"broken\": null}}"
        );
    }

    #[test]
    fn merge_replaces_same_experiment_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("bicord-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = |name: &str, wall: f64| {
            let mut p = PerfRecorder::start(name, false);
            p.cells(1);
            p.record(wall, 1)
        };
        merge_record(&path, rec("a", 1.0)).unwrap();
        merge_record(&path, rec("b", 2.0)).unwrap();
        merge_record(&path, rec("a", 9.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "{text}");
        assert_eq!(text.matches("\"experiment\": \"a\"").count(), 1);
        assert_eq!(text.matches("\"experiment\": \"b\"").count(), 1);
        assert!(text.contains("\"wall_ms\": 9"), "{text}");
        assert!(!text.contains("\"wall_ms\": 1,"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_replaces_an_entry_written_without_spaces() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-compact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        std::fs::write(
            &path,
            "[\n{\"experiment\":\"a\",\"quick\":false,\"threads\":1,\"cells\":1,\
             \"wall_ms\":1,\"metrics\":{}}\n]\n",
        )
        .unwrap();
        let mut p = PerfRecorder::start("a", false);
        p.cells(1);
        merge_record(&path, p.record(9.0, 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "[\n{\"experiment\": \"a\", \"quick\": false, \"threads\": 1, \
             \"cells\": 1, \"wall_ms\": 9, \"metrics\": {}}\n]\n"
        );
        // A file that is not a results array is reported, not clobbered.
        std::fs::write(&path, "{\"experiment\": \"a\"}").unwrap();
        assert!(merge_record(&path, p.record(9.0, 1)).is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"experiment\": \"a\"}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_keys_on_experiment_and_quick_only() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-key-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = |quick: bool, wall: f64| {
            let mut p = PerfRecorder::start("a", quick);
            p.cells(1);
            p.record(wall, 1)
        };
        merge_record(&path, rec(false, 1.0)).unwrap();
        merge_record(&path, rec(true, 2.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"experiment\": \"a\"").count(), 2, "{text}");
        // Records an older recorder tagged with a shard share the quick
        // record's key, so a new quick record replaces all of them.
        let shard = |k: u32| {
            format!(
                "{{\"experiment\": \"a\", \"quick\": true, \"shard\": \"{k}/2\", \
                 \"threads\": 1, \"cells\": 1, \"wall_ms\": 5, \"metrics\": {{}}}}"
            )
        };
        std::fs::write(&path, format!("[\n{},\n{}\n]\n", shard(1), shard(2))).unwrap();
        merge_record(&path, rec(true, 8.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "[\n{\"experiment\": \"a\", \"quick\": true, \"threads\": 1, \
             \"cells\": 1, \"wall_ms\": 8, \"metrics\": {}}\n]\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
