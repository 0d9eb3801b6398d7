//! Tracing from outside the program: a timing [`EventSink`], a counting
//! [`SimGuard`], replays of the protocol core, and the per-seed check
//! that deterministic work counts repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bicord_core::{AllocatorConfig, CsiDetector, DetectorConfig, WhiteSpaceAllocator};
use bicord_phy::csi::{CsiModel, CsiSample};
use bicord_sim::guard::{GuardViolation, SimGuard};
use bicord_sim::obs::{EventSink, TraceEvent};
use bicord_sim::SimTime;

use crate::measure::{ns, AllocSnap};
use crate::report::Outcome;

/// `(t_us, deviation, high)` of each `csi_classified` record.
pub type CsiStream = Vec<(u64, f64, bool)>;
/// `(t_us, is_request)`: `n_round` records are allocator requests,
/// `burst_complete` records are burst ends.
pub type AllocatorCalls = Vec<(u64, bool)>;

/// Dequeue kinds timed on their own; every other kind is `other`.
pub const KINDS: [&str; 5] = [
    "timer",
    "tx_end",
    "zigbee_burst",
    "channel_clear_check",
    "other",
];

fn kind_index(kind: &str) -> usize {
    KINDS[..4].iter().position(|k| *k == kind).unwrap_or(4)
}

/// An [`EventSink`] that timestamps each `Dequeue` record and charges
/// the host time until the next one to the previous record's kind (the
/// handler plus the engine's next pop). It also keeps what the core
/// replays need: the CSI stream and the allocator's call times.
#[derive(Debug, Default)]
pub struct BenchSink {
    last: Option<(Instant, usize)>,
    pub kind_ns: [u64; 5],
    pub kind_count: [u64; 5],
    pub csi: CsiStream,
    pub allocator_calls: AllocatorCalls,
    pub detections: u64,
    /// Records per kind, dequeues excepted.
    pub records: BTreeMap<&'static str, u64>,
}

impl BenchSink {
    /// Charges the last interval, up to the end of the run.
    pub fn close(&mut self) {
        if let Some((t, k)) = self.last.take() {
            self.kind_ns[k] += ns(t.elapsed());
        }
    }

    pub fn record_count(&self, kind: &str) -> u64 {
        self.records.get(kind).copied().unwrap_or(0)
    }
}

impl EventSink for BenchSink {
    fn emit(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Dequeue { kind, .. } => {
                let now = Instant::now();
                if let Some((t, k)) = self.last {
                    self.kind_ns[k] += ns(now - t);
                }
                let k = kind_index(kind);
                self.kind_count[k] += 1;
                self.last = Some((now, k));
                // Dequeues are counted per kind above, not in `records`.
                return;
            }
            TraceEvent::CsiClassified {
                t_us,
                deviation,
                high,
            } => self.csi.push((t_us, deviation, high)),
            TraceEvent::NRound { t_us, .. } => self.allocator_calls.push((t_us, true)),
            TraceEvent::BurstComplete { t_us, .. } => self.allocator_calls.push((t_us, false)),
            TraceEvent::Detection { .. } => self.detections += 1,
            _ => {}
        }
        *self.records.entry(event.kind()).or_insert(0) += 1;
    }
}

/// A [`SimGuard`] that checks nothing and counts transmissions begun.
#[derive(Debug, Default)]
pub struct BenchGuard {
    pub tx_begun: u64,
}

impl SimGuard for BenchGuard {
    fn check_stall(&mut self, _now: SimTime, _streak: u64) -> Option<GuardViolation> {
        None
    }

    fn on_burst_start(&mut self, _now: SimTime, _node: u32) {}

    fn on_burst_end(&mut self, _node: u32) {}

    fn check_liveness(&mut self, _now: SimTime) -> Option<GuardViolation> {
        None
    }

    fn on_tx_begin(&mut self) {
        self.tx_begun += 1;
    }

    fn check_tx_end(&mut self, _now: SimTime, _active: u64) -> Option<GuardViolation> {
        None
    }

    fn check_airtime(&mut self, _end: u64, _busy: u64, _cap: u64) -> Option<GuardViolation> {
        None
    }
}

/// Captures the classification of the last CSI sample pushed.
struct LastHigh(Option<bool>);

impl EventSink for LastHigh {
    fn emit(&mut self, event: &TraceEvent) {
        if let TraceEvent::CsiClassified { high, .. } = *event {
            self.0 = Some(high);
        }
    }
}

/// Replays a traced `(t_us, deviation, high)` stream into a fresh
/// [`CsiDetector`]: once timed, once checking that every sample is
/// classified as the trace says. Returns the timed pass's host ns.
pub fn replay_detector(config: DetectorConfig, csi: &[(u64, f64, bool)]) -> Result<u64, String> {
    let sample = |&(t_us, deviation, _): &(u64, f64, bool)| CsiSample {
        time: SimTime::from_micros(t_us),
        deviation,
    };
    let mut detector = CsiDetector::new(config, CsiModel::intel5300());
    let start = Instant::now();
    for s in csi {
        black_box(detector.push(sample(s)));
    }
    let elapsed = ns(start.elapsed());

    let mut detector = CsiDetector::new(config, CsiModel::intel5300());
    let mut last = LastHigh(None);
    for (i, s) in csi.iter().enumerate() {
        last.0 = None;
        detector.push_obs(sample(s), &mut last);
        if last.0 != Some(s.2) {
            return Err(format!(
                "CSI replay: sample {i} at {} us classified {:?}, trace says high={}",
                s.0, last.0, s.2
            ));
        }
    }
    Ok(elapsed)
}

/// Replays traced allocator call times into a fresh
/// [`WhiteSpaceAllocator`]; returns the host ns of the replay.
pub fn replay_allocator(config: AllocatorConfig, calls: &[(u64, bool)]) -> u64 {
    let mut allocator = WhiteSpaceAllocator::new(config);
    let start = Instant::now();
    for &(t_us, request) in calls {
        let now = SimTime::from_micros(t_us);
        if request {
            black_box(allocator.on_request(now));
        } else {
            black_box(allocator.on_burst_end(now));
        }
    }
    ns(start.elapsed())
}

/// Scenario dequeue timings and protocol-core replay timings, summed
/// over runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreTimings {
    kind_ns: [u64; 5],
    kind_count: [u64; 5],
    detector_ns: u64,
    csi_samples: u64,
    allocator_ns: u64,
    allocator_calls: u64,
}

impl CoreTimings {
    /// The sink's dequeue timings, plus replays of a run's CSI stream
    /// and allocator calls (the CSI replay checks every classification).
    pub fn measure(
        sink: &BenchSink,
        csi: &[(u64, f64, bool)],
        calls: &[(u64, bool)],
        detector: DetectorConfig,
        allocator: AllocatorConfig,
    ) -> Result<CoreTimings, String> {
        Ok(CoreTimings {
            kind_ns: sink.kind_ns,
            kind_count: sink.kind_count,
            detector_ns: replay_detector(detector, csi)?,
            csi_samples: csi.len() as u64,
            allocator_ns: replay_allocator(allocator, calls),
            allocator_calls: calls.len() as u64,
        })
    }

    pub fn add(&mut self, other: &CoreTimings) {
        for k in 0..KINDS.len() {
            self.kind_ns[k] += other.kind_ns[k];
            self.kind_count[k] += other.kind_count[k];
        }
        self.detector_ns += other.detector_ns;
        self.csi_samples += other.csi_samples;
        self.allocator_ns += other.allocator_ns;
        self.allocator_calls += other.allocator_calls;
    }

    /// Mean host ns per dequeue of each scenario kind and per core call.
    pub fn report(&self, out: &mut Outcome) {
        let names = [
            "scenario.timer_ns",
            "scenario.tx_end_ns",
            "scenario.zigbee_burst_ns",
            "scenario.channel_clear_check_ns",
        ];
        for (k, name) in names.iter().enumerate() {
            out.set(
                name,
                self.kind_ns[k] as f64 / self.kind_count[k].max(1) as f64,
            );
        }
        out.set(
            "core.detector_ns_per_sample",
            self.detector_ns as f64 / self.csi_samples.max(1) as f64,
        );
        out.set(
            "core.allocator_ns_per_call",
            self.allocator_ns as f64 / self.allocator_calls.max(1) as f64,
        );
    }
}

/// Work counts of one scenario run, named as the per-layer metrics they
/// become.
pub fn scenario_counts(
    events: u64,
    reservations: u64,
    sink: &BenchSink,
    guard: &BenchGuard,
) -> Vec<(&'static str, u64)> {
    vec![
        ("sim.engine.events", events),
        ("scenario.events.timer", sink.kind_count[0]),
        ("scenario.events.tx_end", sink.kind_count[1]),
        ("scenario.events.zigbee_burst", sink.kind_count[2]),
        ("scenario.events.channel_clear_check", sink.kind_count[3]),
        ("scenario.events.other", sink.kind_count[4]),
        ("scenario.tx_begun", guard.tx_begun),
        ("core.csi_samples", sink.csi.len() as u64),
        ("core.detections", sink.detections),
        ("core.reservations", reservations),
    ]
}

/// Allocation counts of set-up and run, named as their metrics.
pub fn alloc_counts(setup: AllocSnap, run: AllocSnap) -> Vec<(&'static str, u64)> {
    vec![
        ("alloc.setup_count", setup.count),
        ("alloc.run_count", run.count),
        ("check.alloc_run_bytes", run.bytes),
    ]
}

/// Deterministic work counts per simulation seed: a seed seen twice
/// must repeat every count exactly. Allocation counts are kept apart and
/// not compared: the scenario's timer `HashMap` uses per-instance random
/// hash keys, and whether its deletions force a rehash (one allocation)
/// depends on them.
#[derive(Debug, Default)]
pub struct SeedCounts {
    first: Option<u64>,
    seen: BTreeMap<u64, Vec<(&'static str, u64)>>,
    first_unchecked: Vec<(&'static str, u64)>,
}

impl SeedCounts {
    pub fn record(
        &mut self,
        seed: u64,
        exact: Vec<(&'static str, u64)>,
        unchecked: Vec<(&'static str, u64)>,
    ) -> Result<(), String> {
        if self.first.is_none() {
            self.first = Some(seed);
            self.first_unchecked = unchecked;
        }
        match self.seen.get(&seed) {
            Some(prev) if *prev != exact => Err(format!(
                "work counts of seed {seed} differ between two runs: {prev:?} then {exact:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(seed, exact);
                Ok(())
            }
        }
    }

    /// The counts of the first seed run, which the per-layer output
    /// reports as integers.
    pub fn first(&self) -> Vec<(&'static str, u64)> {
        let exact = self.first.and_then(|s| self.seen.get(&s));
        exact
            .into_iter()
            .flatten()
            .chain(&self.first_unchecked)
            .copied()
            .collect()
    }

    /// Reports the first seed's counts (`check.*` names are compared
    /// only), and allocations per event over the count named `events`.
    pub fn report(&self, out: &mut Outcome, events: &str) {
        let counts = self.first();
        for &(name, value) in &counts {
            if !name.starts_with("check.") {
                out.set(name, value as f64);
            }
        }
        let events = count(&counts, events).max(1) as f64;
        out.set(
            "alloc.per_event",
            count(&counts, "alloc.run_count") as f64 / events,
        );
        out.set(
            "alloc.bytes_per_event",
            count(&counts, "check.alloc_run_bytes") as f64 / events,
        );
    }
}

/// The value of the count `name` (0 when absent).
pub fn count(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1)
}
