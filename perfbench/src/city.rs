//! `city_10k`: `DenseCityConfig::with_device_count(10_000, seed)` — the
//! medium-bound city block — untraced via `DenseCityConfig::run`, or
//! through a traced copy of its run loop built from public calls.

use std::time::Instant;

use bicord_mac::frames::Payload;
use bicord_mac::medium::TxId;
use bicord_scenario::dense_city::{DenseCityConfig, DenseCityResults};
use bicord_sim::dist::exponential_duration;
use bicord_sim::event::EventQueue;
use bicord_sim::{stream_rng, SeedDomain, SimTime};
use rand::rngs::StdRng;

use crate::expected::{check, hex_hash, Expected};
use crate::measure::{
    median, ns, quantile, run_ops, set_counting, timer_cost_ns, AllocSnap, SeedPlan,
};
use crate::probes::{alloc_counts, count, SeedCounts};
use crate::report::{end_to_end, pct_over, E2eSample, Outcome};

pub const NAME: &str = "city_10k";
const DEVICES: u32 = 10_000;
const POOL: usize = 4;
const BASE_SEED: u64 = 1;

pub fn pool() -> Vec<u64> {
    (0..POOL as u64).map(|k| BASE_SEED + k).collect()
}

fn config(seed: u64) -> DenseCityConfig {
    DenseCityConfig::with_device_count(DEVICES, seed)
}

/// Hash of the results' `Debug` fingerprint.
pub fn fingerprint(r: &DenseCityResults) -> String {
    hex_hash(format!("{r:?}").as_bytes())
}

fn check_fingerprint(r: &DenseCityResults, seed: u64, expected: &Expected) -> Result<(), String> {
    check(
        "DenseCityResults fingerprint",
        seed,
        fingerprint(r).as_str(),
        expected.str(NAME, seed, None)?,
    )
}

pub fn run(seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let plan = SeedPlan::new(pool(), seed);
    let ops = run_ops(seconds, 1, POOL, 3, false, |i| {
        let seed = plan.nth(i);
        let cfg = config(seed);
        // `run` builds its own medium; the set-up is timed on a separate
        // build of the same block.
        let t0 = Instant::now();
        drop(std::hint::black_box(cfg.build_medium()));
        let t1 = Instant::now();
        let r = cfg.run();
        let host_ns = ns(t1.elapsed());
        check_fingerprint(&r, seed, expected)?;
        Ok(E2eSample {
            setup_ns: ns(t1 - t0),
            host_ns,
            event_ns: host_ns,
            events: r.attempts + r.transmissions,
            sim_s: cfg.duration.as_secs_f64(),
            cells: 1,
        })
    });
    end_to_end(&ops, POOL)
}

enum CityEvent {
    Arrival(u32),
    TxEnd(TxId),
}

/// Host-time samples of one traced city loop.
#[derive(Default)]
struct CityProbe {
    build_ns: u64,
    push_ns: u64,
    pushes: u64,
    pop_ns: u64,
    pops: u64,
    max_pending: usize,
    sensed_ns: Vec<f64>,
    begin_ns: Vec<f64>,
    end_ns: Vec<f64>,
}

fn timed_push(q: &mut EventQueue<CityEvent>, at: SimTime, ev: CityEvent, p: &mut CityProbe) {
    let t = Instant::now();
    q.push(at, ev);
    p.push_ns += ns(t.elapsed());
    p.pushes += 1;
    p.max_pending = p.max_pending.max(q.len());
}

/// `DenseCityConfig::run`, step for step, with each engine and medium
/// call timed. Must return the same results as the original.
fn traced_loop(cfg: &DenseCityConfig, p: &mut CityProbe) -> DenseCityResults {
    let t = Instant::now();
    let (mut medium, devices) = cfg.build_medium();
    p.build_ns = ns(t.elapsed());
    let end_at = SimTime::ZERO + cfg.duration;
    let mut rngs: Vec<StdRng> = (0..devices.len())
        .map(|i| stream_rng(cfg.seed, SeedDomain::Aux, i as u64))
        .collect();
    let mut queue: EventQueue<CityEvent> = EventQueue::with_capacity(devices.len() * 2);
    for (i, d) in devices.iter().enumerate() {
        let at = SimTime::ZERO + exponential_duration(&mut rngs[i], d.mean_interval);
        timed_push(&mut queue, at, CityEvent::Arrival(i as u32), p);
    }
    let mut results = DenseCityResults {
        devices: devices.len() as u32,
        attempts: 0,
        deferrals: 0,
        transmissions: 0,
        mean_sensed_dbm: 0.0,
        grid: Default::default(),
        cache: Default::default(),
        simulated: cfg.duration,
    };
    let mut sensed_sum_dbm = 0.0f64;
    loop {
        let t = Instant::now();
        let next = queue.pop();
        p.pop_ns += ns(t.elapsed());
        let Some((now, event)) = next else { break };
        p.pops += 1;
        match event {
            CityEvent::Arrival(idx) => {
                if now >= end_at {
                    continue;
                }
                let d = &devices[idx as usize];
                results.attempts += 1;
                let t = Instant::now();
                let sensed = medium.sensed_power(d.id, &d.band, now, None);
                p.sensed_ns.push(ns(t.elapsed()) as f64);
                sensed_sum_dbm += sensed.to_dbm().value();
                if sensed.to_dbm() >= d.busy {
                    results.deferrals += 1;
                    let backoff = exponential_duration(&mut rngs[idx as usize], d.airtime / 2);
                    timed_push(&mut queue, now + backoff, CityEvent::Arrival(idx), p);
                } else {
                    let t = Instant::now();
                    let tx = medium.begin_transmission(
                        d.id,
                        d.power,
                        d.band,
                        now,
                        now + d.airtime,
                        Payload::Noise,
                    );
                    p.begin_ns.push(ns(t.elapsed()) as f64);
                    results.transmissions += 1;
                    timed_push(&mut queue, now + d.airtime, CityEvent::TxEnd(tx), p);
                    let next = exponential_duration(&mut rngs[idx as usize], d.mean_interval);
                    timed_push(
                        &mut queue,
                        now + d.airtime + next,
                        CityEvent::Arrival(idx),
                        p,
                    );
                }
            }
            CityEvent::TxEnd(tx) => {
                let t = Instant::now();
                medium.end_transmission(tx);
                p.end_ns.push(ns(t.elapsed()) as f64);
            }
        }
    }
    results.mean_sensed_dbm = if results.attempts > 0 {
        sensed_sum_dbm / results.attempts as f64
    } else {
        0.0
    };
    results.grid = medium.grid_stats();
    results.cache = medium.cache_stats();
    results
}

/// Per-operation figures of a traced `city_10k` run.
struct CityTrace {
    plain_ns_per_event: f64,
    traced_ns_per_event: f64,
    probe: CityProbe,
}

pub fn traced(seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let timer_ns = timer_cost_ns();
    let plan = SeedPlan::new(pool(), seed);
    let mut seeds = SeedCounts::default();
    let ops = run_ops(seconds, 0, 1, 3, true, |i| {
        let seed = plan.nth(i);
        let cfg = config(seed);
        // Allocations of set-up alone, then of a whole run (which builds
        // its own medium first).
        set_counting(true);
        let a0 = AllocSnap::now();
        drop(cfg.build_medium());
        let a1 = AllocSnap::now();
        let t = Instant::now();
        let plain = cfg.run();
        let plain_ns = ns(t.elapsed());
        set_counting(false);
        let a2 = AllocSnap::now();
        check_fingerprint(&plain, seed, expected)?;

        let mut probe = CityProbe::default();
        let t = Instant::now();
        let traced = traced_loop(&cfg, &mut probe);
        let traced_ns = ns(t.elapsed());
        check(
            "traced city loop fingerprint",
            seed,
            fingerprint(&traced),
            fingerprint(&plain),
        )?;
        let (setup, whole) = (a1.since(a0), a2.since(a1));
        let g = plain.grid;
        seeds.record(
            seed,
            vec![
                ("sim.engine.events", probe.pops),
                ("check.events", plain.attempts + plain.transmissions),
                ("sim.engine.max_pending", probe.max_pending as u64),
                ("mac.medium.queries", g.queries),
                ("mac.medium.tx_visited", g.tx_visited),
                ("check.cells_visited", g.cells_visited),
                ("check.tx_culled", g.tx_culled),
                ("check.tx_out_of_range", g.tx_out_of_range),
                ("check.link_hits", plain.cache.link_hits),
                ("check.link_misses", plain.cache.link_misses),
            ],
            alloc_counts(setup, whole.since(setup)),
        )?;
        let events = (plain.attempts + plain.transmissions).max(1) as f64;
        Ok(CityTrace {
            plain_ns_per_event: plain_ns as f64 / events,
            traced_ns_per_event: traced_ns as f64 / events,
            probe,
        })
    });
    let mut out = Outcome::traced(&ops, timer_ns);
    let s = &ops.samples;
    seeds.report(&mut out, "check.events");
    let counts = seeds.first();
    let get = |name: &str| count(&counts, name) as f64;
    let queries = get("mac.medium.queries").max(1.0);
    let visited = get("mac.medium.tx_visited");
    out.set("mac.medium.tx_visited_per_query", visited / queries);
    out.set(
        "mac.medium.cells_visited_per_query",
        get("check.cells_visited") / queries,
    );
    out.set(
        "mac.medium.useful_ratio",
        (visited - get("check.tx_out_of_range")) / visited.max(1.0),
    );
    let links = get("check.link_hits") + get("check.link_misses");
    out.set(
        "mac.medium.link_hit_ratio",
        get("check.link_hits") / links.max(1.0),
    );

    let sum = |f: fn(&CityProbe) -> u64| s.iter().map(|c| f(&c.probe)).sum::<u64>() as f64;
    out.set(
        "sim.engine.push_ns",
        sum(|p| p.push_ns) / sum(|p| p.pushes).max(1.0),
    );
    out.set(
        "sim.engine.pop_ns",
        sum(|p| p.pop_ns) / sum(|p| p.pops).max(1.0),
    );
    let all = |f: fn(&CityProbe) -> &Vec<f64>| -> Vec<f64> {
        s.iter().flat_map(|c| f(&c.probe).iter().copied()).collect()
    };
    let sensed = all(|p| &p.sensed_ns);
    out.set("mac.medium.sensed_ns_p50", quantile(&sensed, 0.5));
    out.set("mac.medium.sensed_ns_p90", quantile(&sensed, 0.9));
    out.set("mac.medium.begin_ns_p50", median(&all(|p| &p.begin_ns)));
    out.set("mac.medium.end_ns_p50", median(&all(|p| &p.end_ns)));
    let devices = f64::from(config(0).device_count());
    out.set(
        "mac.medium.setup_ns_per_device",
        median(
            &s.iter()
                .map(|c| c.probe.build_ns as f64)
                .collect::<Vec<_>>(),
        ) / devices,
    );
    let plain: Vec<f64> = s.iter().map(|c| c.plain_ns_per_event).collect();
    let traced: Vec<f64> = s.iter().map(|c| c.traced_ns_per_event).collect();
    out.set(
        "obs.bench_sink_overhead_pct",
        pct_over(median(&traced), median(&plain)),
    );
    out
}

pub fn bless(seed: u64) -> String {
    format!("\"{}\"", fingerprint(&config(seed).run()))
}
