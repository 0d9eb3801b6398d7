//! Regenerates the **Sec. VII-B energy analysis**: BiCord's overhead for a
//! ten-packet 120 B burst versus a clear channel (paper: 10–21 %), and the
//! break-even against retransmissions.

use bicord_bench::BENCH_SEED;
use bicord_core::energy::{clear_channel_burst, failed_attempt};
use bicord_metrics::table::{fmt3, pct, TextTable};
use bicord_phy::units::Dbm;
use bicord_scenario::experiments::{energy_cost, energy_cost_measured};
use bicord_sim::SimDuration;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("energy_cost");
    cli.apply();
    let rows = energy_cost();
    let mut table = TextTable::new(vec![
        "control packets",
        "baseline (mJ)",
        "BiCord (mJ)",
        "overhead",
    ]);
    table.title("Sec. VII-B — energy of a 10 x 120 B burst (paper: 10-21% overhead)");
    for row in &rows {
        table.row(vec![
            row.n_control.to_string(),
            fmt3(row.baseline_mj),
            fmt3(row.bicord_mj),
            pct(row.overhead),
        ]);
    }
    println!("{table}");

    // Break-even: how many retransmissions cost as much as coordinating?
    let base = clear_channel_burst(10, 120, Dbm::new(0.0), SimDuration::from_millis(4)).total_mj();
    let retry = failed_attempt(120, Dbm::new(0.0)).total_mj();
    let bicord_extra = rows.last().expect("two rows").bicord_mj - base;
    println!(
        "one failed attempt costs {retry:.3} mJ; BiCord's full coordination costs \
         {bicord_extra:.3} mJ — break-even at {:.1} retransmissions (paper: > 2)",
        bicord_extra / retry
    );

    // The same calculation with coordination overheads *measured* from a
    // live simulation of the Sec. VII-B workload.
    let measured = energy_cost_measured(BENCH_SEED, cli.run_duration(30, 5));
    println!();
    println!(
        "measured from simulation: {:.1} control packets per burst, ~{:.1} ms of \
         white-space wait",
        measured.controls_per_burst, measured.listen_ms
    );
    println!(
        "  baseline {:.3} mJ, BiCord {:.3} mJ -> overhead {} (paper band: 10-21%)",
        measured.baseline_mj,
        measured.bicord_mj,
        pct(measured.overhead)
    );
}
