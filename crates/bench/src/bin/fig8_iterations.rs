//! Regenerates **Fig. 8**: iterations needed by the Wi-Fi device to adjust
//! the white space — locations {A, B} × steps {30, 40} ms × bursts
//! {5, 10, 15} packets, averaged over repeated runs (30 in the paper).
//!
//! The paper's headline: always below 8 iterations; more packets or a
//! shorter step need more iterations.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, TextTable};
use bicord_scenario::experiments::fig8_fig9;
use bicord_sim::SimDuration;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("fig8_iterations");
    cli.apply();
    let runs = u64::from(cli.run_count(30, 5));
    eprintln!("Fig. 8: sweeping 2 locations x 2 steps x 3 burst sizes, {runs} runs each...");
    let mut perf = PerfRecorder::start("fig8_iterations", cli.quick);
    let rows = fig8_fig9(BENCH_SEED, runs, SimDuration::from_secs(8));
    perf.cells(rows.len() * runs as usize);
    perf.metric(
        "max_mean_iterations",
        rows.iter().map(|r| r.mean_iterations).fold(0.0, f64::max),
    );
    perf.finish();

    let mut table = TextTable::new(vec![
        "location",
        "step (ms)",
        "burst (pkts)",
        "mean iterations",
        "converged runs",
    ]);
    table.title("Fig. 8 — iterations to converge (paper: always < 8)");
    for row in &rows {
        table.row(vec![
            row.location.label().to_string(),
            row.step_ms.to_string(),
            row.burst_packets.to_string(),
            fmt1(row.mean_iterations),
            format!("{:.0}%", row.converged_fraction * 100.0),
        ]);
    }
    println!("{table}");

    let max_iter = rows.iter().map(|r| r.mean_iterations).fold(0.0, f64::max);
    println!("maximum mean iterations: {max_iter:.1} (paper bound: 8)");
}
