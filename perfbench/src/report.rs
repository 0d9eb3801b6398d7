//! Metric tables, the common end-to-end computation and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;

use crate::measure::{median, p90, peak_rss_mb, quantile, scale, Ops};

/// End-to-end metrics (printed with `--trace 0`), name and unit. Every
/// workload reports all of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("ns_per_event_p50", "ns"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`). A workload that does
/// not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.timer_ns", "ns"),
    ("bench.samples", "count"),
    ("bench.reference_ms", "ms"),
    ("sim.engine.push_ns", "ns"),
    ("sim.engine.pop_ns", "ns"),
    ("sim.engine.max_pending", "count"),
    ("sim.engine.events", "count"),
    ("mac.medium.sensed_ns_p50", "ns"),
    ("mac.medium.sensed_ns_p90", "ns"),
    ("mac.medium.begin_ns_p50", "ns"),
    ("mac.medium.end_ns_p50", "ns"),
    ("mac.medium.queries", "count"),
    ("mac.medium.tx_visited", "count"),
    ("mac.medium.tx_visited_per_query", "count"),
    ("mac.medium.cells_visited_per_query", "count"),
    ("mac.medium.useful_ratio", "ratio"),
    ("mac.medium.link_hit_ratio", "ratio"),
    ("mac.medium.setup_ns_per_device", "ns"),
    ("scenario.timer_ns", "ns"),
    ("scenario.tx_end_ns", "ns"),
    ("scenario.zigbee_burst_ns", "ns"),
    ("scenario.channel_clear_check_ns", "ns"),
    ("scenario.events.timer", "count"),
    ("scenario.events.tx_end", "count"),
    ("scenario.events.zigbee_burst", "count"),
    ("scenario.events.channel_clear_check", "count"),
    ("scenario.events.other", "count"),
    ("scenario.tx_begun", "count"),
    ("core.detector_ns_per_sample", "ns"),
    ("core.allocator_ns_per_call", "ns"),
    ("core.csi_samples", "count"),
    ("core.detections", "count"),
    ("core.reservations", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p90", "ms"),
    ("sweep.resolve_expand_ms", "ms"),
    ("sweep.overhead_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.bench_sink_overhead_pct", "%"),
    ("obs.records", "count"),
    ("obs.records_per_sim_s", "1/s"),
    ("obs.csi_classified_share", "ratio"),
    ("obs.trace_bytes_per_sim_s", "B/s"),
    ("analyze.read_s", "s"),
    ("analyze.compute_s", "s"),
    ("analyze.render_s", "s"),
    ("analyze.summarize_mb_per_s", "MB/s"),
    ("alloc.per_event", "count"),
    ("alloc.bytes_per_event", "B"),
    ("alloc.setup_count", "count"),
    ("alloc.run_count", "count"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (printed to standard error).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable report lines (sample counts, tails).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Starts an outcome from an operation loop's tallies.
    pub fn from_ops<T>(ops: &Ops<T>) -> Outcome {
        Outcome {
            attempted: ops.attempted,
            failed: ops.failed,
            errors: ops.errors.clone(),
            ..Outcome::default()
        }
    }

    /// Starts a traced run's outcome with the `bench.*` metrics.
    pub fn traced<T>(ops: &Ops<T>, timer_ns: f64) -> Outcome {
        let mut out = Outcome::from_ops(ops);
        out.set("bench.timer_ns", timer_ns);
        out.set("bench.samples", ops.samples.len() as f64);
        out.set("bench.reference_ms", median(&ops.ref_ms));
        out
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check that is not tied to one operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.errors.push(message);
    }
}

/// One measured operation of an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct E2eSample {
    /// Host ns of the operation's set-up.
    pub setup_ns: u64,
    /// Host ns of the operation without its set-up.
    pub host_ns: u64,
    /// Host ns spent producing `events` (the simulation part).
    pub event_ns: u64,
    /// Dequeued events (city: attempts plus transmissions).
    pub events: u64,
    /// Simulated seconds completed.
    pub sim_s: f64,
    /// Cells completed (one per seeded run outside the sweep).
    pub cells: u64,
}

impl E2eSample {
    /// The sample with its host times multiplied by `k`.
    fn scaled(self, k: f64) -> E2eSample {
        let by = |ns: u64| (ns as f64 * k).round() as u64;
        E2eSample {
            setup_ns: by(self.setup_ns),
            host_ns: by(self.host_ns),
            event_ns: by(self.event_ns),
            ..self
        }
    }
}

/// The end-to-end metrics of an untraced run whose operations form
/// rounds of `round` seeded runs, each round visiting every seed of the
/// pool once. Every host time is scaled by the reference runs around it
/// (see [`crate::measure::reference_ms`]); times per run are round
/// means, so every sample holds the same mix of seeds.
pub fn end_to_end(ops: &Ops<E2eSample>, round: usize) -> Outcome {
    let mut out = Outcome::from_ops(ops);
    let scaled: Vec<E2eSample> = ops
        .samples
        .iter()
        .zip(&ops.ref_ms)
        .map(|(x, &r)| x.scaled(scale(r)))
        .collect();
    let rounds: Vec<&[E2eSample]> = scaled.chunks_exact(round).collect();
    if rounds.is_empty() || ops.failed > 0 {
        out.fail("no complete round of operations".to_string());
        return out;
    }
    let per_round =
        |f: &dyn Fn(&[E2eSample]) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(r)).collect() };
    let setup = per_round(&|r| sum(r, |x| x.setup_ns as f64) / r.len() as f64);
    let wall = per_round(&|r| sum(r, |x| x.host_ns as f64) / r.len() as f64 / 1e9);
    let per_event: Vec<f64> = scaled
        .iter()
        .map(|x| x.event_ns as f64 / x.events.max(1) as f64)
        .collect();
    out.set("setup_s", median(&setup) / 1e9);
    out.set("wall_s", median(&wall));
    out.set(
        "sim_s_per_host_s",
        median(&per_round(&|r| {
            sum(r, |x| x.sim_s) / (sum(r, |x| x.host_ns as f64) / 1e9)
        })),
    );
    out.set("ns_per_event_p50", median(&per_event));
    out.set(
        "cells_per_s",
        median(&per_round(&|r| {
            sum(r, |x| x.cells as f64) / (sum(r, |x| (x.setup_ns + x.host_ns) as f64) / 1e9)
        })),
    );
    match peak_rss_mb() {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.fail(e),
    }
    let raw_wall: Vec<f64> = ops
        .samples
        .chunks_exact(round)
        .map(|r| sum(r, |x| x.host_ns as f64) / r.len() as f64 / 1e9)
        .collect();
    out.notes.push(format!(
        "samples: {} operations in {} rounds; reference kernel {} ms (median)",
        per_event.len(),
        rounds.len(),
        median(&ops.ref_ms)
    ));
    out.notes.push(format!(
        "unscaled wall_s {} (rounds p10 {} p90 {}); scaled wall_s rounds p10 {} p90 {}",
        median(&raw_wall),
        quantile(&raw_wall, 0.1),
        quantile(&raw_wall, 0.9),
        quantile(&wall, 0.1),
        quantile(&wall, 0.9)
    ));
    match p90(&per_event) {
        Some(v) => out.notes.push(format!("ns_per_event_p90 = {v} ns")),
        None => out.notes.push(format!(
            "ns_per_event_p90: not reported ({} samples; needs 100)",
            per_event.len()
        )),
    }
    out
}

/// How many percent `value` lies above `base`.
pub fn pct_over(value: f64, base: f64) -> f64 {
    (value / base - 1.0) * 100.0
}

fn sum(round: &[E2eSample], f: fn(&E2eSample) -> f64) -> f64 {
    round.iter().map(f).sum()
}

/// Prints the report lines and, last, the one-line JSON result. Returns
/// whether every check passed.
pub fn print(outcome: &Outcome, table: &[(&str, &str)]) -> bool {
    let mut failed = outcome.failed;
    let mut problems = outcome.errors.clone();
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            failed += 1;
            problems.push(format!("metric {name} is not finite ({value})"));
            continue;
        }
        println!("{name:<38} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            failed += 1;
            problems.push(format!("metric {name} is not in this run's metric table"));
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    let attempted = outcome.attempted.max(failed).max(1);
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}
