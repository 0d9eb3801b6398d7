//! Regenerates the **Sec. VII-A accuracy numbers**: recognising Wi-Fi
//! interference among RSSI traces of four technologies (paper: 96.39 %)
//! and identifying which of three Wi-Fi devices transmitted (paper:
//! 89.76 % ± 2.14).
//!
//! The sweep registry's `cti_accuracy` scenario runs the same measurement
//! per cell: `bicord sweep --spec specs/cti_accuracy_quick.json
//! [--shard K/N]`.

use bicord_bench::{PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{pct, TextTable};
use bicord_scenario::experiments::cti_accuracy;

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit("cti_accuracy");
    cli.apply();
    let traces = cli.run_count(200, 40) as usize;
    eprintln!("CTI detection: {traces} traces per technology / device...");
    let mut perf = PerfRecorder::start("cti_accuracy", cli.quick);
    let acc = cti_accuracy(BENCH_SEED, traces);
    // 4 technologies + 3 training devices, plus the test traces.
    perf.cells(traces * 7 + traces.max(30) * 3);
    perf.metric("wifi_detection_accuracy", acc.wifi_detection_accuracy);
    perf.metric("device_id_accuracy", acc.device_id_accuracy);
    perf.finish();

    let mut table = TextTable::new(vec!["metric", "measured", "paper"]);
    table.title("Sec. VII-A — CTI detection accuracy");
    table.row(vec![
        "Wi-Fi vs other technologies".into(),
        pct(acc.wifi_detection_accuracy),
        "96.39%".into(),
    ]);
    table.row(vec![
        "Wi-Fi device identification".into(),
        pct(acc.device_id_accuracy),
        "89.76%".into(),
    ]);
    table.row(vec![
        "identification std-dev".into(),
        pct(acc.device_id_std),
        "2.14%".into(),
    ]);
    println!("{table}");
}
