//! `coex_bicord` and `coex_traced`: the paper's default cell (BiCord,
//! location A, 5-packet bursts every 200 ms over saturated Wi-Fi), run
//! as independently seeded `CoexistenceSim` runs of 30 simulated
//! seconds — untraced, or writing and summarizing a `bicord-trace/1`
//! file.

use std::path::Path;
use std::time::Instant;

use bicord_analyze::summarize::{Analytics, SummarizeOptions};
use bicord_analyze::trace::{TraceFile, Value};
use bicord_scenario::config::{RunResults, SimConfig};
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::obs::{JsonlSink, Tee, TraceHeader};
use bicord_sim::SimDuration;

use crate::expected::{check, hex_hash, Expected};
use crate::measure::{median, ns, run_ops, set_counting, timer_cost_ns, AllocSnap, SeedPlan};
use crate::probes::{
    alloc_counts, count, scenario_counts, AllocatorCalls, BenchGuard, BenchSink, CoreTimings,
    CsiStream, SeedCounts,
};
use crate::report::{end_to_end, pct_over, E2eSample, Outcome};

pub const BICORD: &str = "coex_bicord";
pub const TRACED: &str = "coex_traced";

/// Simulated seconds of one seeded run.
pub const SIM_SECS: u64 = 30;
const POOL: usize = 8;
const BASE_SEED: u64 = 20_210_705;

pub fn pool() -> Vec<u64> {
    (0..POOL as u64).map(|k| BASE_SEED + k).collect()
}

pub fn config(seed: u64) -> SimConfig {
    let mut config = SimConfig::bicord(Location::A, seed);
    config.duration = SimDuration::from_secs(SIM_SECS);
    config
}

/// Digest of a run's outcome: event count, ZigBee generated/delivered/
/// transmissions, reservations, Wi-Fi frames and the bit patterns of the
/// utilization shares.
pub fn digest(r: &RunResults) -> String {
    let words = [
        r.events,
        r.zigbee.generated,
        r.zigbee.delivered,
        r.zigbee.transmissions,
        r.wifi.reservations,
        r.wifi.frames_sent,
        r.utilization.to_bits(),
        r.zigbee_utilization.to_bits(),
        r.wifi_utilization.to_bits(),
        r.overhead_fraction.to_bits(),
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    hex_hash(&bytes)
}

fn check_digest(r: &RunResults, seed: u64, expected: &Expected) -> Result<(), String> {
    check(
        "RunResults digest",
        seed,
        digest(r).as_str(),
        expected.str(BICORD, seed, None)?,
    )
}

/// One untraced run with allocation counting: results, host ns of the
/// run, and the allocations of set-up and of the run.
fn counted_run(seed: u64) -> Result<(RunResults, u64, AllocSnap, AllocSnap), String> {
    set_counting(true);
    let a0 = AllocSnap::now();
    let sim = CoexistenceSim::new(config(seed)).map_err(|e| e.to_string());
    let a1 = AllocSnap::now();
    let sim = sim?;
    let t = Instant::now();
    let r = sim.run();
    let run_ns = ns(t.elapsed());
    set_counting(false);
    let a2 = AllocSnap::now();
    Ok((r, run_ns, a1.since(a0), a2.since(a1)))
}

pub fn bicord(seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let plan = SeedPlan::new(pool(), seed);
    let ops = run_ops(seconds, 3, POOL, 3, false, |i| {
        let seed = plan.nth(i);
        let t0 = Instant::now();
        let sim = CoexistenceSim::new(config(seed)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let r = sim.run();
        let t2 = Instant::now();
        check_digest(&r, seed, expected)?;
        Ok(E2eSample {
            setup_ns: ns(t1 - t0),
            host_ns: ns(t2 - t1),
            event_ns: ns(t2 - t1),
            events: r.events,
            sim_s: SIM_SECS as f64,
            cells: 1,
        })
    });
    end_to_end(&ops, POOL)
}

/// A run writing a `bicord-trace/1` file to `path`.
struct JsonlRun {
    results: RunResults,
    setup_ns: u64,
    /// Sink creation, run and trailer flush.
    sim_ns: u64,
    records: u64,
}

fn jsonl_run(seed: u64, path: &Path) -> Result<JsonlRun, String> {
    let header = TraceHeader::new(seed, "bicord", SIM_SECS * 1_000_000);
    let t0 = Instant::now();
    let mut sink = JsonlSink::create(path, &header).map_err(|e| format!("creating trace: {e}"))?;
    let t1 = Instant::now();
    let sim = CoexistenceSim::with_sink(config(seed), &mut sink).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let results = sim.run();
    let records = sink.finish().map_err(|e| format!("writing trace: {e}"))?;
    let t3 = Instant::now();
    Ok(JsonlRun {
        results,
        setup_ns: ns(t2 - t1),
        sim_ns: ns(t1 - t0) + ns(t3 - t2),
        records,
    })
}

/// The library path of `bicord analyze summarize --format json`.
struct Summary {
    trace: TraceFile,
    json_hash: String,
    read_ns: u64,
    compute_ns: u64,
    render_ns: u64,
}

fn summarize(path: &Path) -> Result<Summary, String> {
    let t0 = Instant::now();
    let trace = TraceFile::read(path).map_err(|e| format!("reading trace: {e}"))?;
    let t1 = Instant::now();
    let analytics = Analytics::compute(&trace, &SummarizeOptions::default());
    let t2 = Instant::now();
    let json = analytics.render_json(&trace);
    let t3 = Instant::now();
    Ok(Summary {
        json_hash: hex_hash(json.as_bytes()),
        trace,
        read_ns: ns(t1 - t0),
        compute_ns: ns(t2 - t1),
        render_ns: ns(t3 - t2),
    })
}

fn populations(trace: &TraceFile) -> Vec<(String, u64)> {
    trace
        .populations()
        .into_iter()
        .map(|(k, n)| (k.to_string(), n as u64))
        .collect()
}

fn check_summary(s: &Summary, seed: u64, expected: &Expected) -> Result<(), String> {
    check(
        "trace records per kind",
        seed,
        populations(&s.trace),
        expected.counts(TRACED, seed, "records")?,
    )?;
    check(
        "summarize JSON hash",
        seed,
        s.json_hash.as_str(),
        expected.str(TRACED, seed, Some("summary"))?,
    )
}

pub fn traced(seed: u64, seconds: f64, expected: &Expected, tmp: &Path) -> Outcome {
    let plan = SeedPlan::new(pool(), seed);
    let path = tmp.join("coex.jsonl");
    let ops = run_ops(seconds, 3, POOL, 3, false, |i| {
        let seed = plan.nth(i);
        let run = jsonl_run(seed, &path)?;
        let summary = summarize(&path)?;
        check_digest(&run.results, seed, expected)?;
        check_summary(&summary, seed, expected)?;
        let summarize_ns = summary.read_ns + summary.compute_ns + summary.render_ns;
        Ok(E2eSample {
            setup_ns: run.setup_ns,
            host_ns: run.sim_ns + summarize_ns,
            event_ns: run.sim_ns,
            events: run.results.events,
            sim_s: SIM_SECS as f64,
            cells: 1,
        })
    });
    end_to_end(&ops, POOL)
}

/// Per-operation figures of a traced `coex_bicord` run.
struct BicordProbe {
    plain_ns_per_event: f64,
    bench_ns_per_event: f64,
    timings: CoreTimings,
}

pub fn bicord_traced(seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let timer_ns = timer_cost_ns();
    let plan = SeedPlan::new(pool(), seed);
    let mut seeds = SeedCounts::default();
    let ops = run_ops(seconds, 0, 1, 5, true, |i| {
        let seed = plan.nth(i);
        let cfg = config(seed);
        let (plain, plain_ns, setup_allocs, run_allocs) = counted_run(seed)?;
        check_digest(&plain, seed, expected)?;

        let (mut sink, mut guard) = (BenchSink::default(), BenchGuard::default());
        let sim = CoexistenceSim::with_guard(cfg.clone(), &mut sink, &mut guard)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let traced = sim.run();
        sink.close();
        let bench_ns = ns(t.elapsed());
        check(
            "traced RunResults digest",
            seed,
            digest(&traced),
            digest(&plain),
        )?;
        let timings = CoreTimings::measure(
            &sink,
            &sink.csi,
            &sink.allocator_calls,
            cfg.detector,
            cfg.allocator,
        )?;
        seeds.record(
            seed,
            scenario_counts(plain.events, plain.wifi.reservations, &sink, &guard),
            alloc_counts(setup_allocs, run_allocs),
        )?;
        let events = plain.events.max(1) as f64;
        Ok(BicordProbe {
            plain_ns_per_event: plain_ns as f64 / events,
            bench_ns_per_event: bench_ns as f64 / events,
            timings,
        })
    });
    let mut out = Outcome::traced(&ops, timer_ns);
    let s = &ops.samples;
    let mut timings = CoreTimings::default();
    s.iter().for_each(|p| timings.add(&p.timings));
    timings.report(&mut out);
    seeds.report(&mut out, "sim.engine.events");
    let med = |f: fn(&BicordProbe) -> f64| median(&s.iter().map(f).collect::<Vec<_>>());
    out.set(
        "obs.bench_sink_overhead_pct",
        pct_over(med(|p| p.bench_ns_per_event), med(|p| p.plain_ns_per_event)),
    );
    out
}

/// Per-operation figures of a traced `coex_traced` run.
struct TracedProbe {
    plain_ns_per_event: f64,
    jsonl_ns_per_event: f64,
    tee_ns_per_event: f64,
    read_ns: u64,
    compute_ns: u64,
    render_ns: u64,
    bytes: u64,
    timings: CoreTimings,
}

/// The `(t_us, deviation, high)` stream and the allocator call times of
/// a parsed trace file.
fn trace_streams(trace: &TraceFile) -> Result<(CsiStream, AllocatorCalls), String> {
    let mut csi = Vec::new();
    let mut calls = Vec::new();
    for r in &trace.records {
        match r.kind.as_str() {
            "csi_classified" => {
                let deviation = match r.field("deviation") {
                    Some(Value::F64(d)) => *d,
                    Some(Value::U64(n)) => *n as f64,
                    other => return Err(format!("csi_classified deviation {other:?}")),
                };
                let Some(Value::Bool(high)) = r.field("high") else {
                    return Err(format!("csi_classified at {} us has no high flag", r.t_us));
                };
                csi.push((r.t_us, deviation, *high));
            }
            "n_round" => calls.push((r.t_us, true)),
            "burst_complete" => calls.push((r.t_us, false)),
            _ => {}
        }
    }
    Ok((csi, calls))
}

pub fn traced_traced(seed: u64, seconds: f64, expected: &Expected, tmp: &Path) -> Outcome {
    let timer_ns = timer_cost_ns();
    let plan = SeedPlan::new(pool(), seed);
    let (path, tee_path) = (tmp.join("coex.jsonl"), tmp.join("coex_tee.jsonl"));
    let mut seeds = SeedCounts::default();
    let ops = run_ops(seconds, 0, 1, 5, true, |i| {
        let seed = plan.nth(i);
        let cfg = config(seed);
        let (plain, plain_ns, setup_allocs, run_allocs) = counted_run(seed)?;
        check_digest(&plain, seed, expected)?;

        let run = jsonl_run(seed, &path)?;
        check(
            "traced RunResults digest",
            seed,
            digest(&run.results),
            digest(&plain),
        )?;
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("trace size: {e}"))?
            .len();
        let summary = summarize(&path)?;
        check_summary(&summary, seed, expected)?;
        let (csi, calls) = trace_streams(&summary.trace)?;

        // The same trace again, teed into the timing sink.
        let header = TraceHeader::new(seed, "bicord", SIM_SECS * 1_000_000);
        let jsonl = JsonlSink::create(&tee_path, &header).map_err(|e| e.to_string())?;
        let mut tee = Tee(jsonl, BenchSink::default());
        let mut guard = BenchGuard::default();
        let sim = CoexistenceSim::with_guard(cfg.clone(), &mut tee, &mut guard)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let teed = sim.run();
        tee.1.close();
        let Tee(jsonl, sink) = tee;
        jsonl.finish().map_err(|e| format!("writing trace: {e}"))?;
        let tee_ns = ns(t.elapsed());
        check(
            "teed RunResults digest",
            seed,
            digest(&teed),
            digest(&plain),
        )?;
        if sink.csi != csi {
            return Err(format!(
                "seed {seed}: the timing sink's CSI stream differs from the trace's"
            ));
        }
        let timings = CoreTimings::measure(&sink, &csi, &calls, cfg.detector, cfg.allocator)?;

        let mut counts = scenario_counts(plain.events, plain.wifi.reservations, &sink, &guard);
        counts.push(("obs.records", run.records));
        counts.push(("check.trace_bytes", bytes));
        counts.push(("check.csi_classified", csi.len() as u64));
        seeds.record(seed, counts, alloc_counts(setup_allocs, run_allocs))?;
        let events = plain.events.max(1) as f64;
        Ok(TracedProbe {
            plain_ns_per_event: plain_ns as f64 / events,
            jsonl_ns_per_event: run.sim_ns as f64 / events,
            tee_ns_per_event: tee_ns as f64 / events,
            read_ns: summary.read_ns,
            compute_ns: summary.compute_ns,
            render_ns: summary.render_ns,
            bytes,
            timings,
        })
    });
    let mut out = Outcome::traced(&ops, timer_ns);
    let s = &ops.samples;
    let mut timings = CoreTimings::default();
    s.iter().for_each(|p| timings.add(&p.timings));
    timings.report(&mut out);
    seeds.report(&mut out, "sim.engine.events");
    let med = |f: fn(&TracedProbe) -> f64| median(&s.iter().map(f).collect::<Vec<_>>());
    out.set(
        "obs.trace_overhead_pct",
        pct_over(med(|p| p.jsonl_ns_per_event), med(|p| p.plain_ns_per_event)),
    );
    out.set(
        "obs.bench_sink_overhead_pct",
        pct_over(med(|p| p.tee_ns_per_event), med(|p| p.jsonl_ns_per_event)),
    );
    let counts = seeds.first();
    let get = |name: &str| count(&counts, name) as f64;
    out.set(
        "obs.records_per_sim_s",
        get("obs.records") / SIM_SECS as f64,
    );
    out.set(
        "obs.csi_classified_share",
        get("check.csi_classified") / get("obs.records").max(1.0),
    );
    out.set(
        "obs.trace_bytes_per_sim_s",
        get("check.trace_bytes") / SIM_SECS as f64,
    );
    out.set("analyze.read_s", med(|p| p.read_ns as f64) / 1e9);
    out.set("analyze.compute_s", med(|p| p.compute_ns as f64) / 1e9);
    out.set("analyze.render_s", med(|p| p.render_ns as f64) / 1e9);
    out.set(
        "analyze.summarize_mb_per_s",
        med(|p| p.bytes as f64 / 1e6 / ((p.read_ns + p.compute_ns + p.render_ns) as f64 / 1e9)),
    );
    out
}

/// Expected outputs of one pool seed: the `coex_bicord` digest and the
/// `coex_traced` record counts and summary hash.
pub fn bless(seed: u64, tmp: &Path) -> Result<(String, String), String> {
    let path = tmp.join("bless.jsonl");
    let run = jsonl_run(seed, &path)?;
    let plain = CoexistenceSim::new(config(seed))
        .map_err(|e| e.to_string())?
        .run();
    check(
        "traced RunResults digest",
        seed,
        digest(&run.results),
        digest(&plain),
    )?;
    let summary = summarize(&path)?;
    let records: Vec<String> = populations(&summary.trace)
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    Ok((
        format!("\"{}\"", digest(&plain)),
        format!(
            "{{\"summary\": \"{}\", \"records\": {{{}}}}}",
            summary.json_hash,
            records.join(", ")
        ),
    ))
}
