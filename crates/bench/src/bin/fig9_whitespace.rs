//! Regenerates **Fig. 9**: the white space generated after the adjustment
//! phase versus burst size, with the over-provision ratios the paper
//! reports (27.1 % / 12.5 % / 20.4 % for 5 / 10 / 15 packets).

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::experiments::fig8_fig9;
use bicord_sim::SimDuration;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig9_whitespace");
    cli.apply();
    let runs = u64::from(cli.run_count(30, 5));
    eprintln!("Fig. 9: converged white space across the Fig. 8 grid, {runs} runs each...");
    let mut perf = PerfRecorder::start("fig9_whitespace", cli.quick);
    let rows = fig8_fig9(BENCH_SEED, runs, SimDuration::from_secs(8));
    perf.cells(rows.len() * runs as usize);
    perf.metric(
        "mean_overprovision",
        rows.iter().map(|r| r.mean_overprovision).sum::<f64>() / rows.len() as f64,
    );
    perf.finish();

    let mut table = TextTable::new(vec![
        "location",
        "step (ms)",
        "burst (pkts)",
        "burst length (ms)",
        "white space (ms)",
        "over-provision",
    ]);
    table.title("Fig. 9 — white space after the adjustment phase");
    for row in &rows {
        table.row(vec![
            row.location.label().to_string(),
            row.step_ms.to_string(),
            row.burst_packets.to_string(),
            fmt1(row.burst_duration_ms),
            fmt1(row.mean_final_ws_ms),
            pct(row.mean_overprovision),
        ]);
    }
    println!("{table}");

    println!("Paper anchors: the white space tracks the burst length; longer steps");
    println!("over-provision more; reported over-provision 27.1/12.5/20.4% for 5/10/15");
    println!("packets — an acceptable cost since, unlike ECC, the space is always used.");
}
