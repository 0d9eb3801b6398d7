//! Pins the exact output of short runs across the configuration matrix:
//! every coordination mode, with and without the contending Wi-Fi
//! station, with and without fault injection, plus multi-node, paced
//! Wi-Fi and Bluetooth cells.
//!
//! Each line of `tests/golden/run_matrix.txt` is one cell: its name, the
//! `RunResults` `Debug` string, and the FNV-1a hash of the cell's
//! `bicord-trace/1` bytes. A refactor of the runtime must leave the file
//! byte-identical; the trace goldens only cover default BiCord.
//!
//! Regenerate after an intentional simulation change with
//! `BICORD_BLESS=1 cargo test --test run_matrix`.

use std::path::PathBuf;

use bicord::prelude::*;
use bicord::scenario::config::{BluetoothConfig, ExtraWifiConfig};
use bicord::sim::{stream_rng, SeedDomain};
use bicord::sweep::contract::fnv1a;
use bicord::sweep::registry::robustness_config;
use bicord::workloads::priority::PrioritySchedule;

const SEED: u64 = 31;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_matrix.txt")
}

fn duration() -> SimDuration {
    SimDuration::from_millis(1_500)
}

/// The four coordination modes, each as a short run at location A.
fn mode_configs() -> Vec<(&'static str, SimConfig)> {
    let with_duration = |mut c: SimConfig| {
        c.duration = duration();
        c
    };
    vec![
        (
            "bicord",
            with_duration(SimConfig::bicord(Location::A, SEED)),
        ),
        (
            "ecc30",
            with_duration(SimConfig::ecc(
                Location::A,
                SEED,
                SimDuration::from_millis(30),
            )),
        ),
        (
            "unprotected",
            with_duration(SimConfig::unprotected(Location::A, SEED)),
        ),
        // 15 trials of 100 ms: the preset derives its own 1.55 s duration.
        (
            "trial",
            SimConfig::signaling_trial(Location::A, SEED, 4, 15, Dbm::new(0.0)),
        ),
    ]
}

/// Adds two extra ZigBee pairs (locations C and D).
fn three_nodes(mut config: SimConfig) -> SimConfig {
    config.extra_nodes.push(ExtraNodeConfig::at(Location::C));
    config.extra_nodes.push(ExtraNodeConfig::at(Location::D));
    config
}

/// Every cell of the matrix, in golden-file order.
fn cells() -> Vec<(String, SimConfig)> {
    let faulted = robustness_config(0.5, SEED, duration()).fault;
    let mut cells = Vec::new();
    for (mode, base) in mode_configs() {
        for contender in [false, true] {
            for faults in [false, true] {
                let mut config = base.clone();
                if contender {
                    config.extra_wifi = Some(ExtraWifiConfig::default());
                }
                if faults {
                    config.fault = faulted;
                }
                let name = format!(
                    "{mode}/{}/{}",
                    if contender { "contender" } else { "alone" },
                    if faults { "faults" } else { "clean" }
                );
                cells.push((name, config));
            }
        }
    }

    let modes = mode_configs();
    let (bicord, ecc) = (&modes[0].1, &modes[1].1);
    cells.push(("bicord/3-node".to_string(), three_nodes(bicord.clone())));
    cells.push(("ecc30/3-node".to_string(), three_nodes(ecc.clone())));

    let mut paced = bicord.clone();
    paced.extra_wifi = Some(ExtraWifiConfig::default());
    paced.wifi.enqueue_interval = Some(SimDuration::from_micros(1_600));
    let mut rng = stream_rng(SEED, SeedDomain::Traffic, 77);
    paced.priority = Some(PrioritySchedule::with_proportion(
        paced.duration,
        0.3,
        SimDuration::from_millis(250),
        &mut rng,
    ));
    cells.push(("bicord/paced-priority/contender".to_string(), paced));

    let mut bluetooth = bicord.clone();
    bluetooth.extra_wifi = Some(ExtraWifiConfig::default());
    bluetooth.bluetooth = Some(BluetoothConfig::default());
    cells.push(("bicord/bluetooth/contender".to_string(), bluetooth));
    cells
}

/// Runs one cell with a JSONL trace sink; returns the golden line.
fn run_cell(name: &str, config: SimConfig) -> String {
    let dir = std::env::temp_dir().join(format!("bicord-run-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}.jsonl", name.replace('/', "_")));
    let header = TraceHeader::new(config.seed, name, config.duration.as_micros());
    let mut sink = JsonlSink::create(&path, &header).expect("create trace");
    let results = CoexistenceSim::with_sink(config, &mut sink)
        .expect("valid matrix config")
        .run();
    sink.finish().expect("finish trace");
    let bytes = std::fs::read(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    format!("{name} | {results:?} | trace_fnv={:016x}", fnv1a(&bytes))
}

#[test]
fn run_matrix_matches_golden() {
    let actual: String = cells()
        .into_iter()
        .map(|(name, config)| run_cell(&name, config) + "\n")
        .collect();
    let golden = golden_path();
    if std::env::var("BICORD_BLESS").is_ok() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BICORD_BLESS=1",
            golden.display()
        )
    });
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "run-matrix line {} drifted from {} — if the simulation change \
             is intentional, re-bless with BICORD_BLESS=1",
            i + 1,
            golden.display()
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "run-matrix cell count changed"
    );
}
