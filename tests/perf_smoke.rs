//! Cargo-test wrapper around `scripts/perf_smoke.sh`: serial vs
//! parallel `fig10_replicated --quick` must emit byte-identical tables.
//! Thread counts are pinned via `BICORD_THREADS` on *child processes*,
//! so this never races with other tests over environment variables.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held by both tests in this file: the byte-identity test runs a
/// multi-threaded `fig10_replicated` child that would otherwise occupy
/// the cores while the sink-overhead test is timing one of its variants.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], ignoring poison so one failing test does not fail
/// the other.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Finds an already-built `fig10_replicated` binary (release preferred,
/// then debug). Returns `None` if neither profile has built it yet — in
/// that case the script would fall back to `cargo run --release`, which
/// is too slow to hide inside `cargo test`, so we skip instead.
fn find_binary(repo: &Path) -> Option<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo.join("target"));
    ["release", "debug"]
        .iter()
        .map(|profile| target.join(profile).join("fig10_replicated"))
        .find(|p| p.is_file())
}

#[test]
fn serial_and_parallel_quick_tables_are_byte_identical() {
    let _serial = serial();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(binary) = find_binary(repo) else {
        eprintln!("perf_smoke: no prebuilt fig10_replicated binary; skipping");
        return;
    };
    let script = repo.join("scripts/perf_smoke.sh");
    let output = Command::new("bash")
        .arg(&script)
        .arg(&binary)
        // The bench-recording stages re-enter cargo; inside `cargo test`
        // that would deadlock on the build lock. The diff stage is the
        // assertion here.
        .env("PERF_SMOKE_SKIP_BENCH", "1")
        .output()
        .expect("perf_smoke.sh should spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "perf_smoke.sh failed (serial vs parallel output diverged?)\n\
         --- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(
        stdout.contains("outputs byte-identical"),
        "unexpected perf_smoke.sh output:\n{stdout}"
    );
}

/// The uninstrumented simulation (`NoopSink`, what every sweep runs) must
/// not pay for the observability layer: it may not run measurably slower
/// than the *actively counting* instrumented variant. The generous bound
/// only trips when the `EventSink` plumbing stops compiling away (e.g. a
/// dynamic dispatch or an unconditional allocation sneaks into the hot
/// path) — ordinary timing noise stays far below it.
///
/// The config enables device mobility so the medium-cache record kinds
/// (`medium_cache_invalidated` per step, `medium_cache_stats` at
/// finalize) are part of the workload the bound covers; the counting
/// variant doubles as the check that those records surface as registry
/// counters.
#[test]
fn noop_sink_is_not_slower_than_a_counting_sink() {
    use bicord::prelude::*;
    use bicord::sim::{stream_rng, SeedDomain};
    use bicord::workloads::mobility::DeviceMobility;
    use std::time::{Duration, Instant};

    let _serial = serial();
    let duration = SimDuration::from_secs(2);
    let config = move || {
        let mut rng = stream_rng(11, SeedDomain::Mobility, 2);
        SimConfig::builder()
            .seed(11)
            .duration(duration)
            .device_mobility(DeviceMobility::generate(
                Location::A.sender_position(),
                1.0,
                duration,
                SimDuration::from_millis(250),
                &mut rng,
            ))
            .build()
            .expect("valid config")
    };
    // Warm-up, then min-of-5 for each variant to shed scheduler noise.
    CoexistenceSim::new(config()).unwrap().run();
    let time = |run: &mut dyn FnMut()| {
        let t = Instant::now();
        run();
        t.elapsed()
    };
    let mut run_noop = move || {
        CoexistenceSim::new(config()).unwrap().run();
    };
    let mut run_counting = move || {
        let mut sink = CountingSink::new();
        CoexistenceSim::with_sink(config(), &mut sink)
            .unwrap()
            .run();
        assert!(sink.registry.counter("dequeue") > 0);
        // The cache layer's records flow through the registry: mobility
        // steps invalidate, and the finalize snapshot carries the
        // hit/miss counters (a hot query layer should be hit-dominated).
        assert!(sink.registry.counter("medium_cache_invalidated") > 0);
        assert_eq!(sink.registry.counter("medium_cache_stats"), 1);
        assert!(
            sink.registry.counter("medium_link_hits") > sink.registry.counter("medium_link_misses")
        );
        // The spatial grid snapshot rides the same mobility gate; the
        // default conservative hearing radius visits everything (nothing
        // culled), which is exactly the golden-preserving contract.
        assert_eq!(sink.registry.counter("medium_grid_stats"), 1);
        assert!(sink.registry.counter("medium_grid_queries") > 0);
        assert_eq!(sink.registry.counter("medium_culled_grid"), 0);
        assert_eq!(sink.registry.counter("medium_culled_range"), 0);
    };
    // The runs alternate, so a slow stretch of a shared host slows both
    // variants instead of only the one being timed at that moment.
    let (mut noop, mut counting) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        noop = noop.min(time(&mut run_noop));
        counting = counting.min(time(&mut run_counting));
    }
    assert!(
        noop.as_secs_f64() <= counting.as_secs_f64() * 1.25,
        "NoopSink run ({noop:?}) slower than CountingSink run ({counting:?}) — \
         the sink abstraction is no longer zero-cost"
    );
}
