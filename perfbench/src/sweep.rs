//! `sweep_mixed`: the benchmark's `multi_node` and `robustness` specs
//! run through `run_shard_supervised` into a temporary directory — many
//! short cells under supervision, with artifact hashing and merging.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bicord_scenario::config::{ExtraNodeConfig, RunResults, SimConfig};
use bicord_scenario::experiments::Scheme;
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::SimDuration;
use bicord_sweep::registry::robustness_config;
use bicord_sweep::{
    load_spec, run_shard_supervised, Cell, ResultRow, RunPolicy, ScenarioRegistry, Shard,
    ShardOutcome, SweepSpec,
};
use bicord_workloads::traffic::{ArrivalProcess, BurstSpec};

use crate::expected::{check, hex_hash, Expected};
use crate::measure::{median, ns, p90, run_ops, set_counting, timer_cost_ns, AllocSnap, SeedPlan};
use crate::probes::{
    alloc_counts, count, scenario_counts, BenchGuard, BenchSink, CoreTimings, SeedCounts,
};
use crate::report::{end_to_end, pct_over, E2eSample, Outcome};

pub const NAME: &str = "sweep_mixed";
const SPECS: [&str; 2] = ["multi_node.json", "robustness.json"];
const POOL: usize = 4;
const BASE_SEED: u64 = 20_210_705;

/// Master seeds replacing the spec files' own; replicate `r` of a grid
/// point runs with seed `master + r`, so the pool keeps them apart.
pub fn pool() -> Vec<u64> {
    (0..POOL as u64).map(|k| BASE_SEED + 100 * k).collect()
}

fn spec_paths() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    SPECS.iter().map(|f| dir.join(f)).collect()
}

/// The specs, loaded and resolved, with the cells and simulated seconds
/// of one pass over them (from their expansion).
struct Loaded {
    specs: Vec<SweepSpec>,
    cells: u64,
    sim_s: f64,
}

/// A pass's set-up: loads, resolves and expands the specs.
fn load(registry: &ScenarioRegistry) -> Result<Loaded, String> {
    let mut loaded = Loaded {
        specs: Vec::new(),
        cells: 0,
        sim_s: 0.0,
    };
    for path in spec_paths() {
        let spec = load_spec(&path).map_err(|e| e.to_string())?;
        let spec = registry.resolve(&spec).map_err(|e| e.to_string())?;
        for cell in spec.expand() {
            loaded.cells += 1;
            loaded.sim_s += cell.int("duration_secs")? as f64;
        }
        loaded.specs.push(spec);
    }
    Ok(loaded)
}

fn with_seed(spec: &SweepSpec, seed: u64) -> SweepSpec {
    SweepSpec {
        seed,
        ..spec.clone()
    }
}

/// Empties the pass's output directory, so every pass starts from the
/// same file-system state.
fn fresh_dir(tmp: &Path) -> Result<PathBuf, String> {
    let dir = tmp.join("sweep");
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => Ok(dir),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(dir),
        Err(e) => Err(format!("clearing {}: {e}", dir.display())),
    }
}

/// One supervised pass over every spec with master seed `seed`; returns
/// the shard outcomes and the hash of the merged result files.
fn pass(
    registry: &Arc<ScenarioRegistry>,
    specs: &[SweepSpec],
    seed: u64,
    out_dir: &Path,
) -> Result<(Vec<(SweepSpec, ShardOutcome)>, String), String> {
    let mut outcomes = Vec::new();
    let mut hashes = String::new();
    for spec in specs {
        let spec = with_seed(spec, seed);
        let outcome = run_shard_supervised(
            registry,
            &spec,
            Shard::SINGLE,
            out_dir,
            false,
            &RunPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        if !outcome.quarantined.is_empty() {
            return Err(format!(
                "{}: cells {:?} quarantined",
                spec.scenario, outcome.quarantined
            ));
        }
        let merged = outcome
            .merged
            .as_ref()
            .ok_or("clean pass wrote no merged file")?;
        let bytes = std::fs::read(merged).map_err(|e| format!("reading merged rows: {e}"))?;
        hashes.push_str(&hex_hash(&bytes));
        outcomes.push((spec, outcome));
    }
    Ok((outcomes, hex_hash(hashes.as_bytes())))
}

pub fn run(seed: u64, seconds: f64, expected: &Expected, tmp: &Path) -> Outcome {
    let registry = Arc::new(ScenarioRegistry::builtin());
    let plan = SeedPlan::new(pool(), seed);
    let ops = run_ops(seconds, 2, POOL, 3, false, |i| {
        let seed = plan.nth(i);
        let dir = fresh_dir(tmp)?;
        let t0 = Instant::now();
        let loaded = load(&registry)?;
        let t1 = Instant::now();
        let (_, rows_hash) = pass(&registry, &loaded.specs, seed, &dir)?;
        let host_ns = ns(t1.elapsed());
        check(
            "merged rows hash",
            seed,
            rows_hash.as_str(),
            expected.str(NAME, seed, Some("rows"))?,
        )?;
        Ok(E2eSample {
            setup_ns: ns(t1 - t0),
            host_ns,
            event_ns: host_ns,
            events: expected.u64(NAME, seed, "events")?,
            sim_s: loaded.sim_s,
            cells: loaded.cells,
        })
    });
    end_to_end(&ops, POOL)
}

fn scheme(name: &str) -> Result<Scheme, String> {
    match name {
        "bicord" => Ok(Scheme::Bicord),
        "ecc-20" => Ok(Scheme::Ecc(20)),
        "ecc-30" => Ok(Scheme::Ecc(30)),
        "ecc-40" => Ok(Scheme::Ecc(40)),
        other => Err(format!("unknown scheme {other}")),
    }
}

/// The configuration `multi_node_cell` builds for a cell.
fn multi_node_config(cell: &Cell) -> Result<SimConfig, String> {
    let n_nodes = cell.int("n_nodes")?;
    let mut config = scheme(cell.str("scheme")?)?.config(Location::A, cell.seed);
    config.duration = SimDuration::from_secs(cell.int("duration_secs")? as u64);
    config.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(300));
    let extra = [(2, Location::C, 10, 500), (3, Location::D, 3, 400)];
    for (from, location, n_packets, interval_ms) in extra {
        if n_nodes >= from {
            let mut node = ExtraNodeConfig::at(location);
            node.burst = BurstSpec {
                n_packets,
                mpdu_bytes: 50,
            };
            node.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(interval_ms));
            config.extra_nodes.push(node);
        }
    }
    Ok(config)
}

/// The metrics the registry reports for a cell, from a run's results
/// and the timing sink's record counts.
fn cell_metrics(scenario: &str, r: &RunResults, sink: &BenchSink) -> Vec<(String, f64)> {
    let m = |name: &str, v: f64| (name.to_string(), v);
    let delay = r.zigbee.mean_delay_ms.unwrap_or(f64::NAN);
    if scenario == "multi_node" {
        let mut out = vec![
            m("utilization", r.utilization),
            m("aggregate_pdr", r.zigbee_pdr()),
            m("mean_delay_ms", delay),
        ];
        for (i, n) in r.per_node.iter().enumerate() {
            out.push(m(
                &format!("pdr_node_{i}"),
                n.delivered as f64 / n.generated.max(1) as f64,
            ));
        }
        return out;
    }
    let count = |kind: &str| sink.record_count(kind) as f64;
    vec![
        m("pdr", r.zigbee_pdr()),
        m("mean_delay_ms", delay),
        m("utilization", r.utilization),
        m("zigbee_utilization", r.zigbee_utilization),
        m("delivered", r.zigbee.delivered as f64),
        m("generated", r.zigbee.generated as f64),
        m("signaling_rounds", r.zigbee.signaling_rounds as f64),
        m("reservations", r.wifi.reservations as f64),
        m("csma_fallbacks", r.zigbee.csma_fallbacks as f64),
        m("backoffs", count("signaling_backoff")),
        m("control_lost", count("fault_control_lost")),
        m("cts_lost", count("fault_cts_lost")),
        m("phantom_csi", count("fault_phantom_csi")),
        m("events", r.events as f64),
    ]
}

/// Compares metric lists bit for bit (`NaN` equal to `NaN`).
fn same_metrics(a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, va), (nb, vb))| {
            na == nb && (va.to_bits() == vb.to_bits() || (va.is_nan() && vb.is_nan()))
        })
}

/// A traced copy of one cell: the scenario's configuration run under
/// the timing sink and counting guard, checked against the cell's row.
struct Replica {
    config: SimConfig,
    sink: BenchSink,
    guard: BenchGuard,
    results: RunResults,
    run_ns: u64,
}

fn replica(scenario: &str, cell: &Cell, row: &ResultRow) -> Result<Replica, String> {
    let config = match scenario {
        "multi_node" => multi_node_config(cell)?,
        "robustness" => robustness_config(
            cell.float("fault_rate")?,
            cell.seed,
            SimDuration::from_secs(cell.int("duration_secs")? as u64),
        ),
        other => return Err(format!("no replica for scenario {other}")),
    };
    let mut sink = BenchSink::default();
    let mut guard = BenchGuard::default();
    let sim = CoexistenceSim::with_guard(config.clone(), &mut sink, &mut guard)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let results = sim.run();
    sink.close();
    let run_ns = ns(t.elapsed());
    let metrics = cell_metrics(scenario, &results, &sink);
    if !same_metrics(&metrics, &row.metrics) {
        return Err(format!(
            "{scenario} cell {}: replica metrics {metrics:?} differ from row {:?}",
            cell.id, row.metrics
        ));
    }
    Ok(Replica {
        config,
        sink,
        guard,
        results,
        run_ns,
    })
}

/// Per-pass figures of a traced `sweep_mixed` run.
struct SweepProbe {
    load_ms: f64,
    overhead_share: f64,
    cell_ms: Vec<f64>,
    run_cell_ns: u64,
    replica_ns: u64,
    timings: CoreTimings,
}

/// Sums of one pass's replicas: timings and work counts.
#[derive(Default)]
struct PassTotals {
    timings: CoreTimings,
    counts: Vec<(&'static str, u64)>,
    replica_ns: u64,
}

impl PassTotals {
    fn add(&mut self, r: &Replica) -> Result<(), String> {
        let timings = CoreTimings::measure(
            &r.sink,
            &r.sink.csi,
            &r.sink.allocator_calls,
            r.config.detector,
            r.config.allocator,
        )?;
        self.timings.add(&timings);
        let counts = scenario_counts(
            r.results.events,
            r.results.wifi.reservations,
            &r.sink,
            &r.guard,
        );
        if self.counts.is_empty() {
            self.counts = counts;
        } else {
            for (total, (_, n)) in self.counts.iter_mut().zip(counts) {
                total.1 += n;
            }
        }
        self.replica_ns += r.run_ns;
        Ok(())
    }
}

/// Runs every cell of a supervised pass again: once through
/// `ScenarioRegistry::run_cell` (timed, rows must match) and once as a
/// traced replica. Returns the cell times and the replica totals.
fn rerun_cells(
    registry: &ScenarioRegistry,
    outcomes: &[(SweepSpec, ShardOutcome)],
) -> Result<(Vec<u64>, PassTotals), String> {
    let mut cell_ns = Vec::new();
    let mut totals = PassTotals::default();
    for (spec, outcome) in outcomes {
        let cells = spec.expand();
        if cells.len() != outcome.rows.len() {
            return Err(format!(
                "{}: {} rows for {} cells",
                spec.scenario,
                outcome.rows.len(),
                cells.len()
            ));
        }
        for (cell, row) in cells.iter().zip(&outcome.rows) {
            let t = Instant::now();
            let single = registry
                .run_cell(&spec.scenario, cell)
                .map_err(|e| e.to_string())?;
            cell_ns.push(ns(t.elapsed()));
            if single.to_json_line() != row.to_json_line() {
                return Err(format!(
                    "{} cell {}: run_cell row differs from the supervised row",
                    spec.scenario, cell.id
                ));
            }
            totals.add(&replica(&spec.scenario, cell, row)?)?;
        }
    }
    Ok((cell_ns, totals))
}

pub fn traced(seed: u64, seconds: f64, expected: &Expected, tmp: &Path) -> Outcome {
    let timer_ns = timer_cost_ns();
    let registry = Arc::new(ScenarioRegistry::builtin());
    let plan = SeedPlan::new(pool(), seed);
    let mut seeds = SeedCounts::default();
    let ops = run_ops(seconds, 0, 1, 3, true, |i| {
        let seed = plan.nth(i);
        let dir = fresh_dir(tmp)?;
        set_counting(true);
        let a0 = AllocSnap::now();
        let t0 = Instant::now();
        let loaded = load(&registry);
        let t1 = Instant::now();
        let a1 = AllocSnap::now();
        let passed = loaded
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|l| pass(&registry, &l.specs, seed, &dir));
        let pass_ns = ns(t1.elapsed());
        set_counting(false);
        let (setup_allocs, run_allocs) = (a1.since(a0), AllocSnap::now().since(a1));
        let (outcomes, rows_hash) = passed?;
        check(
            "merged rows hash",
            seed,
            rows_hash.as_str(),
            expected.str(NAME, seed, Some("rows"))?,
        )?;
        let (cell_ns, totals) = rerun_cells(&registry, &outcomes)?;
        check(
            "replica events",
            seed,
            count(&totals.counts, "sim.engine.events"),
            expected.u64(NAME, seed, "events")?,
        )?;
        seeds.record(seed, totals.counts, alloc_counts(setup_allocs, run_allocs))?;
        let cells_total: u64 = cell_ns.iter().sum();
        Ok(SweepProbe {
            load_ms: ns(t1 - t0) as f64 / 1e6,
            overhead_share: (pass_ns as f64 - cells_total as f64) / pass_ns as f64,
            cell_ms: cell_ns.iter().map(|&n| n as f64 / 1e6).collect(),
            run_cell_ns: cells_total,
            replica_ns: totals.replica_ns,
            timings: totals.timings,
        })
    });
    let mut out = Outcome::traced(&ops, timer_ns);
    let s = &ops.samples;
    let mut timings = CoreTimings::default();
    s.iter().for_each(|p| timings.add(&p.timings));
    timings.report(&mut out);
    seeds.report(&mut out, "sim.engine.events");
    let sum = |f: fn(&SweepProbe) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let cell_ms: Vec<f64> = s.iter().flat_map(|p| p.cell_ms.iter().copied()).collect();
    out.set("sweep.cell_ms_p50", median(&cell_ms));
    match p90(&cell_ms) {
        Some(v) => out.set("sweep.cell_ms_p90", v),
        None => out.fail(format!(
            "only {} cell samples for sweep.cell_ms_p90",
            cell_ms.len()
        )),
    }
    out.set(
        "sweep.resolve_expand_ms",
        median(&s.iter().map(|p| p.load_ms).collect::<Vec<_>>()),
    );
    out.set(
        "sweep.overhead_share",
        median(&s.iter().map(|p| p.overhead_share).collect::<Vec<_>>()),
    );
    out.set(
        "obs.bench_sink_overhead_pct",
        pct_over(sum(|p| p.replica_ns), sum(|p| p.run_cell_ns)),
    );
    out
}

/// Expected outputs of one pool seed: the merged rows hash and the
/// events its cells dequeue (counted by the traced replicas).
pub fn bless(seed: u64, tmp: &Path) -> Result<String, String> {
    let registry = Arc::new(ScenarioRegistry::builtin());
    let specs = load(&registry)?.specs;
    let (outcomes, rows_hash) = pass(&registry, &specs, seed, &fresh_dir(tmp)?)?;
    let (_, totals) = rerun_cells(&registry, &outcomes)?;
    Ok(format!(
        "{{\"rows\": \"{rows_hash}\", \"events\": {}}}",
        count(&totals.counts, "sim.engine.events")
    ))
}
