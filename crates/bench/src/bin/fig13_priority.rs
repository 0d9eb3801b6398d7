//! Regenerates **Fig. 13**: coexistence under prioritised Wi-Fi traffic —
//! total/ZigBee utilization (left) and low-priority Wi-Fi delay (right)
//! as the high-priority share grows from 0.1 to 0.5.
//!
//! Paper anchors: BiCord beats ECC-20/30 ms on total utilization by
//! 3.11 %/9.76 % and on ZigBee utilization by 46.05 %/27.97 %; BiCord's
//! low-priority Wi-Fi delay is ~6 % lower than ECC's; high-priority
//! traffic sees (nearly) zero delay because requests are simply ignored.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::experiments::{fig13_priority, PriorityRow, Scheme};

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig13_priority");
    cli.apply();
    let duration = cli.run_duration(10, 4);
    eprintln!("Fig. 13: 3 schemes x 5 priority shares, {duration} each...");
    let mut perf = PerfRecorder::start("fig13_priority", cli.quick);
    let rows = fig13_priority(BENCH_SEED, duration);
    perf.cells(rows.len());
    perf.metric(
        "bicord_mean_utilization",
        rows.iter()
            .filter(|r| r.scheme == Scheme::Bicord)
            .map(|r| r.utilization)
            .sum::<f64>()
            / rows.iter().filter(|r| r.scheme == Scheme::Bicord).count() as f64,
    );
    perf.finish();

    let mut table = TextTable::new(vec![
        "high-prio share",
        "scheme",
        "total utilization",
        "ZigBee share",
        "low-prio Wi-Fi delay (ms)",
        "ignored requests",
    ]);
    table.title("Fig. 13 — prioritised Wi-Fi traffic");
    for row in &rows {
        table.row(vec![
            format!("{:.0}%", row.proportion * 100.0),
            row.scheme.label(),
            pct(row.utilization),
            pct(row.zigbee_utilization),
            row.wifi_low_delay_ms
                .map(fmt1)
                .unwrap_or_else(|| "-".to_string()),
            row.ignored_requests.to_string(),
        ]);
    }
    bicord_bench::maybe_write_csv("fig13_priority", &table);
    println!("{table}");

    let mean = |scheme: Scheme, f: &dyn Fn(&PriorityRow) -> f64| {
        let v: Vec<f64> = rows.iter().filter(|r| r.scheme == scheme).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let total = |r: &PriorityRow| r.utilization;
    let zb = |r: &PriorityRow| r.zigbee_utilization;
    println!(
        "mean total utilization: BiCord {} vs ECC-20 {} vs ECC-30 {} (paper: +3.11%/+9.76%)",
        pct(mean(Scheme::Bicord, &total)),
        pct(mean(Scheme::Ecc(20), &total)),
        pct(mean(Scheme::Ecc(30), &total)),
    );
    println!(
        "mean ZigBee utilization: BiCord {} vs ECC-20 {} vs ECC-30 {} (paper: +46.05%/+27.97%)",
        pct(mean(Scheme::Bicord, &zb)),
        pct(mean(Scheme::Ecc(20), &zb)),
        pct(mean(Scheme::Ecc(30), &zb)),
    );
}
