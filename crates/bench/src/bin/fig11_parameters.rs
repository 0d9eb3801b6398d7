//! Regenerates **Fig. 11**: BiCord's channel utilization split and
//! per-packet delay as a function of (a) ZigBee packet length, (b) packets
//! per burst, (c) sender location — plus (d) the delay view.
//!
//! Paper anchors: total utilization stays around 80 % across all three
//! sweeps; the ZigBee share (pink) grows with burst duration; delay stays
//! under 80 ms and around 30 ms for small bursts.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::experiments::fig11_parameters;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig11_parameters");
    cli.apply();
    let duration = cli.run_duration(40, 6);
    eprintln!("Fig. 11: three parameter sweeps, {duration} each...");
    let mut perf = PerfRecorder::start("fig11_parameters", cli.quick);
    let rows = fig11_parameters(BENCH_SEED, duration);
    perf.cells(rows.len());
    perf.metric(
        "min_utilization",
        rows.iter().map(|r| r.utilization).fold(f64::MAX, f64::min),
    );
    perf.finish();

    for (dimension, title) in [
        ("packet_length", "Fig. 11(a) — utilization vs packet length"),
        (
            "burst_size",
            "Fig. 11(b) — utilization vs packets per burst",
        ),
        ("location", "Fig. 11(c) — utilization vs sender location"),
    ] {
        let mut table = TextTable::new(vec![
            "value",
            "total utilization",
            "ZigBee share",
            "Wi-Fi share",
        ]);
        table.title(title);
        for row in rows.iter().filter(|r| r.dimension == dimension) {
            table.row(vec![
                row.value.clone(),
                pct(row.utilization),
                pct(row.zigbee_utilization),
                pct(row.utilization - row.zigbee_utilization),
            ]);
        }
        println!("{table}");
    }

    let mut table = TextTable::new(vec!["dimension", "value", "mean delay (ms)"]);
    table.title("Fig. 11(d) — mean per-packet ZigBee delay");
    for row in &rows {
        table.row(vec![
            row.dimension.to_string(),
            row.value.clone(),
            row.mean_delay_ms
                .map(fmt1)
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{table}");

    let min_util = rows.iter().map(|r| r.utilization).fold(f64::MAX, f64::min);
    println!(
        "minimum total utilization across all sweeps: {} (paper: ~80%)",
        pct(min_util)
    );
}
