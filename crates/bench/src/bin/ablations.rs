//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. the **continuity rule** of the CSI detector (N high fluctuations
//!    within T) versus raw thresholding,
//! 2. the **allocator stabilisers** (opportunistic shrink + re-estimation
//!    confirmation) added on top of the paper's Eq. 1.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, fmt3, pct, TextTable};
use bicord_scenario::experiments::{ablation_allocator, ablation_detector};

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("ablations");
    cli.apply();
    let trials = cli.run_count(300, 40);
    eprintln!("Ablation 1: detector rule sweep (N x T), {trials} trials per cell...");
    let mut perf = PerfRecorder::start("ablations", cli.quick);
    let rows = ablation_detector(BENCH_SEED, trials);
    let mut table = TextTable::new(vec!["N (highs)", "T (ms)", "precision", "recall"]);
    table.title("Ablation — CSI detector continuity rule (location C, -1 dBm, 4 packets)");
    for row in &rows {
        table.row(vec![
            row.required_highs.to_string(),
            row.window_ms.to_string(),
            fmt3(row.precision),
            fmt3(row.recall),
        ]);
    }
    println!("{table}");
    let n1 = rows
        .iter()
        .filter(|r| r.required_highs == 1)
        .map(|r| r.precision)
        .sum::<f64>()
        / 3.0;
    let n2 = rows
        .iter()
        .filter(|r| r.required_highs == 2)
        .map(|r| r.precision)
        .sum::<f64>()
        / 3.0;
    println!(
        "mean precision N=1: {} vs N=2: {} — the continuity rule is what",
        fmt3(n1),
        fmt3(n2)
    );
    println!("rejects isolated noise spikes (paper Sec. V / Fig. 3).\n");

    let duration = cli.run_duration(30, 5);
    eprintln!("Ablation 2: allocator stabilisers, {duration} per cell...");
    let rows = ablation_allocator(BENCH_SEED, duration);
    let mut table = TextTable::new(vec![
        "interval",
        "variant",
        "utilization",
        "mean delay (ms)",
        "mean white space (ms)",
        "reservations",
    ]);
    table.title("Ablation — white-space allocator stabilisers");
    for row in &rows {
        table.row(vec![
            format!("{} ms", row.interval_ms),
            row.variant.to_string(),
            pct(row.utilization),
            row.mean_delay_ms.map(fmt1).unwrap_or_else(|| "-".into()),
            fmt1(row.mean_ws_ms),
            row.reservations.to_string(),
        ]);
    }
    println!("{table}");
    println!("Without the shrink path, burst merging under dense traffic ratchets the");
    println!("estimate to the cap and utilization collapses; without confirmation,");
    println!("detector false positives distort a converged estimate immediately.");

    perf.cells(9 + rows.len());
    perf.metric("detector_n2_mean_precision", n2);
    perf.metric(
        "allocator_full_mean_utilization",
        rows.iter()
            .filter(|r| r.variant == "full")
            .map(|r| r.utilization)
            .sum::<f64>()
            / 2.0,
    );
    perf.finish();
}
