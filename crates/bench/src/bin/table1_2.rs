//! Regenerates **Tables I and II**: precision and recall of
//! cross-technology signaling at locations A–D, powers {0, −1, −3} dBm,
//! and {3, 4, 5} control packets per request.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt3, TextTable};
use bicord_phy::units::Dbm;
use bicord_scenario::config::SimConfig;
use bicord_scenario::experiments::{table1_2, table_powers};
use bicord_scenario::geometry::Location;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("table1_2");
    cli.apply();
    cli.maybe_trace(
        "table1_2",
        SimConfig::builder()
            .seed(BENCH_SEED)
            .signaling_trial(4, 60, Dbm::new(0.0))
            .build()
            .expect("trace config is valid"),
    );
    let trials = cli.run_count(600, 60);
    eprintln!(
        "Table I/II grid: 4 locations x 3 powers x 3 packet counts, {trials} trials each{}...",
        if cli.quick { " (quick)" } else { "" }
    );
    let mut perf = PerfRecorder::start("table1_2", cli.quick);
    let cells = table1_2(BENCH_SEED, trials);
    perf.cells(cells.len());
    let n = cells.len() as f64;
    perf.metric(
        "mean_precision",
        cells.iter().map(|c| c.precision).sum::<f64>() / n,
    );
    perf.metric(
        "mean_recall",
        cells.iter().map(|c| c.recall).sum::<f64>() / n,
    );
    perf.finish();

    for (metric, pick) in [("Table I — precision", true), ("Table II — recall", false)] {
        let mut headers = vec!["location".to_string()];
        for power in table_powers() {
            for packets in [3, 4, 5] {
                headers.push(format!("{}dBm/{}pkt", power.value(), packets));
            }
        }
        let mut table = TextTable::new(headers);
        table.title(metric);
        for location in Location::all() {
            let mut row = vec![location.label().to_string()];
            for power in table_powers() {
                for packets in [3u32, 4, 5] {
                    let cell = cells
                        .iter()
                        .find(|c| {
                            c.location == location && c.power == power && c.packets == packets
                        })
                        .expect("full grid");
                    row.push(fmt3(if pick { cell.precision } else { cell.recall }));
                }
            }
            table.row(row);
        }
        bicord_bench::maybe_write_csv(
            if pick {
                "table1_precision"
            } else {
                "table2_recall"
            },
            &table,
        );
        println!("{table}");
    }

    println!("Paper anchors: precision/recall increase with packet count; location A");
    println!("is robust across powers; C peaks at -1 dBm; D needs -3 dBm.");
}
