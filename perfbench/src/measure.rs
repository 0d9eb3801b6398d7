//! Measurement primitives: host-time statistics, the operation loop,
//! a counting global allocator, process memory and the seed plan.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Forwards to the system allocator and, while [`set_counting`] is on,
/// counts allocations (a `realloc` counts as one) and requested bytes.
pub struct CountingAlloc;

// The counters are statistics that publish no other data, so `Relaxed`
// suffices; counting is off outside the traced runs, leaving one load
// and branch per allocation on the measured path.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees about `layout` are forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees about `layout` are forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, because
        // every allocation of this allocator is forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnap {
    pub count: u64,
    pub bytes: u64,
}

impl AllocSnap {
    pub fn now() -> AllocSnap {
        AllocSnap {
            count: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    pub fn since(self, earlier: AllocSnap) -> AllocSnap {
        AllocSnap {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Nanoseconds of a duration, saturating at `u64::MAX`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 90th percentile, only when at least ten samples lie beyond it.
pub fn p90(values: &[f64]) -> Option<f64> {
    (values.len() >= 100).then(|| quantile(values, 0.9))
}

/// Host cost of one `Instant::now()` call: the median over batches of
/// back-to-back calls.
pub fn timer_cost_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..BATCH {
                last = std::hint::black_box(Instant::now());
            }
            ns(last - start) as f64 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which simulation seeds a run uses: a fixed pool (whose outputs are
/// committed in `expected.json`), walked from a start point and with a
/// stride that both derive from the benchmark's `--seed`.
#[derive(Debug, Clone)]
pub struct SeedPlan {
    pool: Vec<u64>,
    start: usize,
    stride: usize,
}

impl SeedPlan {
    /// A plan over `pool`, whose length must be a power of two.
    pub fn new(pool: Vec<u64>, seed: u64) -> SeedPlan {
        let n = pool.len();
        assert!(
            n.is_power_of_two(),
            "seed pool length must be a power of two"
        );
        let h = splitmix64(seed);
        SeedPlan {
            start: (h as usize) % n,
            // Odd strides are coprime with a power of two, so every lap
            // of the pool visits each seed once.
            stride: ((h >> 32) as usize % n) | 1,
            pool,
        }
    }

    /// The seed of operation `i`.
    pub fn nth(&self, i: usize) -> u64 {
        self.pool[(self.start + i * self.stride) % self.pool.len()]
    }
}

/// What [`reference_ms`] takes on the host the benchmark was defined on
/// (a 2-vCPU Xeon VM, 2.1 GHz base clock), so scaled times read as that
/// host's times.
pub const REFERENCE_NOMINAL_MS: f64 = 0.6;

/// Runs a fixed CPU-and-cache kernel that no library code takes part in
/// (SplitMix64 fills and sorts of 64 KiB) and returns its host ms.
/// Short enough to run between any two operations.
///
/// Shared hosts change clock speed with their neighbours' load, moving
/// every host time by up to ±30% over seconds; a time multiplied by
/// `REFERENCE_NOMINAL_MS / reference_ms()` measured beside it moves far
/// less, while a change to the program still moves it in full.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_u64;
    let mut v = vec![0u64; 8192];
    for _ in 0..4 {
        for e in v.iter_mut() {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *e = splitmix64(x);
        }
        v.sort_unstable();
        x ^= v[4096];
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a host time measured beside a reference run of
/// `ref_ms` to the nominal host.
pub fn scale(ref_ms: f64) -> f64 {
    REFERENCE_NOMINAL_MS / ref_ms
}

/// What a time-bounded loop of operations produced.
#[derive(Debug)]
pub struct Ops<T> {
    /// Results of the measured (non-warm-up) operations.
    pub samples: Vec<T>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Host ms of the reference kernel around each sample (the mean of
    /// the runs just before and after it).
    pub ref_ms: Vec<f64>,
}

/// Runs `op(i)` for `i = 0, 1, ...`: `warmup` operations first, then
/// measured rounds of `round` operations until `seconds` have passed
/// (at least `min_rounds`), with the reference kernel run between
/// measured operations. With `repeat_first`, operation 0 runs once
/// more at the end, so a traced run always sees one seed twice. A panic
/// or an `Err` counts as a failed operation; the loop goes on.
pub fn run_ops<T>(
    seconds: f64,
    warmup: usize,
    round: usize,
    min_rounds: usize,
    repeat_first: bool,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Ops<T> {
    let mut out = Ops {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        ref_ms: Vec::new(),
    };
    let mut attempt = |i: usize, out: &mut Ops<T>| -> Option<T> {
        out.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| op(i))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                out.failed += 1;
                out.errors.push(format!("operation {i}: {e}"));
                None
            }
            Err(_) => {
                out.failed += 1;
                out.errors.push(format!("operation {i}: panicked"));
                None
            }
        }
    };
    for i in 0..warmup {
        attempt(i, &mut out);
    }
    let start = Instant::now();
    let mut i = warmup;
    let mut before = reference_ms();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..round {
            let result = attempt(i, &mut out);
            let after = reference_ms();
            if let Some(v) = result {
                out.samples.push(v);
                out.ref_ms.push((before + after) / 2.0);
            }
            before = after;
            i += 1;
        }
        rounds += 1;
    }
    if repeat_first {
        attempt(0, &mut out);
    }
    out
}
