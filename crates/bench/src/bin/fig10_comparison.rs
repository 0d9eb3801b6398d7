//! Regenerates **Fig. 10**: BiCord versus ECC-20/30/40 ms over the paper's
//! five Poisson burst intervals — (a) channel utilization, (b) mean ZigBee
//! delay, (c) ZigBee throughput.
//!
//! Paper anchors: BiCord stays above 80 % utilization everywhere and beats
//! ECC by up to 50.6 % at the 2 s interval; BiCord's delay stays below
//! ~30 ms while ECC's grows with traffic sparsity (−84.2 % on average);
//! BiCord's throughput is never capped by a fixed white space.

use bicord_bench::BENCH_SEED;
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::config::SimConfig;
use bicord_scenario::experiments::{fig10_comparison, Scheme};
use bicord_sim::SimDuration;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig10_comparison");
    cli.apply();
    cli.maybe_trace(
        "fig10_comparison",
        SimConfig::builder()
            .seed(BENCH_SEED)
            .duration(SimDuration::from_secs(5))
            .build()
            .expect("trace config is valid"),
    );
    let duration = cli.run_duration(60, 6);
    eprintln!("Fig. 10: 4 schemes x 5 intervals, {duration} each...");
    let rows = fig10_comparison(BENCH_SEED, duration);

    for (title, metric) in [
        ("Fig. 10(a) — channel utilization", 0usize),
        ("Fig. 10(b) — mean ZigBee delay (ms)", 1),
        ("Fig. 10(c) — ZigBee throughput (kb/s)", 2),
    ] {
        let mut headers = vec!["interval".to_string()];
        for scheme in Scheme::fig10_set() {
            headers.push(scheme.label());
        }
        let mut table = TextTable::new(headers);
        table.title(title);
        let mut intervals: Vec<u64> = rows.iter().map(|r| r.interval_ms).collect();
        intervals.dedup();
        for interval in intervals {
            let mut row = vec![format!("{interval} ms")];
            for scheme in Scheme::fig10_set() {
                let cell = rows
                    .iter()
                    .find(|r| r.interval_ms == interval && r.scheme == scheme)
                    .expect("full grid");
                row.push(match metric {
                    0 => pct(cell.utilization),
                    1 => cell
                        .mean_delay_ms
                        .map(fmt1)
                        .unwrap_or_else(|| "-".to_string()),
                    _ => fmt1(cell.throughput_kbps),
                });
            }
            table.row(row);
        }
        bicord_bench::maybe_write_csv(&format!("fig10_metric{metric}"), &table);
        println!("{table}");
    }

    // Headline ratios at the sparsest interval.
    let at = |scheme: Scheme, interval: u64| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.interval_ms == interval)
            .expect("grid")
    };
    let bicord = at(Scheme::Bicord, 2000);
    let worst_ecc = Scheme::fig10_set()[1..]
        .iter()
        .map(|s| at(*s, 2000).utilization)
        .fold(f64::MAX, f64::min);
    println!(
        "utilization gain over the weakest ECC at the 2 s interval: {} (paper: +50.6%)",
        pct(bicord.utilization / worst_ecc - 1.0)
    );
    let mean_ratio: f64 = {
        let mut ratios = Vec::new();
        for r in &rows {
            if r.scheme == Scheme::Bicord {
                continue;
            }
            let b = at(Scheme::Bicord, r.interval_ms);
            if let (Some(bd), Some(ed)) = (b.mean_delay_ms, r.mean_delay_ms) {
                ratios.push(1.0 - bd / ed);
            }
        }
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    };
    println!(
        "mean delay reduction vs ECC: {} (paper: 84.2%)",
        pct(mean_ratio)
    );
}
