//! Regenerates **Fig. 12**: channel utilization and ZigBee delay in the
//! static, person-mobility and device-mobility scenarios.
//!
//! Paper anchors: mobility costs at most ~9 % utilization; device mobility
//! adds ≈ 3 ms of delay from retransmissions and extra control packets.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::experiments::{fig12_mobility_replicated, MobilityScenario};

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig12_mobility");
    cli.apply();
    let duration = cli.run_duration(30, 6);
    let runs = u64::from(cli.run_count(5, 1));
    eprintln!("Fig. 12: three scenarios x two burst intervals, {runs} x {duration} each...");
    let mut perf = PerfRecorder::start("fig12_mobility", cli.quick);
    let cells = fig12_mobility_replicated(BENCH_SEED, runs, duration);
    perf.cells(cells.len() * runs as usize);
    perf.metric(
        "mean_utilization",
        cells.iter().map(|c| c.utilization.mean()).sum::<f64>() / cells.len() as f64,
    );
    perf.finish();

    let mut table = TextTable::new(vec![
        "scenario",
        "burst interval",
        "utilization (mean ± 95% CI)",
        "mean delay (ms)",
    ]);
    table.title("Fig. 12 — mobile scenarios (BiCord)");
    for cell in &cells {
        table.row(vec![
            cell.scenario.label().to_string(),
            format!("{} ms", cell.interval_ms),
            format!(
                "{} ± {:.1}pp",
                pct(cell.utilization.mean()),
                cell.utilization.ci95_halfwidth() * 100.0
            ),
            if cell.delay_ms.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{} ± {}",
                    fmt1(cell.delay_ms.mean()),
                    fmt1(cell.delay_ms.ci95_halfwidth())
                )
            },
        ]);
    }
    bicord_bench::maybe_write_csv("fig12_mobility", &table);
    println!("{table}");

    let mean = |s: MobilityScenario| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.scenario == s)
            .map(|c| c.utilization.mean())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let s = mean(MobilityScenario::Static);
    let p = mean(MobilityScenario::PersonMobility);
    let d = mean(MobilityScenario::DeviceMobility);
    println!(
        "utilization drop vs static: person {:.1} pp, device {:.1} pp (paper: <= 9 pp)",
        (s - p) * 100.0,
        (s - d) * 100.0
    );
    let delay = |s: MobilityScenario| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.scenario == s && !c.delay_ms.is_empty())
            .map(|c| c.delay_ms.mean())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "device-mobility delay penalty: {:.1} ms (paper: +3.13 ms)",
        delay(MobilityScenario::DeviceMobility) - delay(MobilityScenario::Static)
    );
}
