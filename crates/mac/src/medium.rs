//! The shared RF medium.
//!
//! [`Medium`] is the single source of truth for "what is on the air":
//! device positions, active transmissions, and the propagation model. It
//! answers the questions every other layer asks:
//!
//! * *What power does device R receive from transmission T?* — path loss
//!   with a static per-link shadowing realisation plus a per-(transmission,
//!   observer) fading draw. The fading draw is stored with its
//!   transmission, so repeated queries about the same pair are consistent
//!   (the CCA check and the CSI model see the same channel) and the draws
//!   leave with the transmission when it ends.
//! * *How much in-band energy does device R sense right now?* — the linear
//!   sum of all overlapping transmissions, weighted by spectral overlap
//!   with R's listening band.
//! * *What is the SINR of transmission T at device R?* — signal versus the
//!   sum of everything else plus the thermal floor.
//!
//! # Query-layer caching
//!
//! The three queries above are the innermost loop of the simulation
//! (every CCA poll goes through [`Medium::sensed_power`]), so the medium
//! memoizes the deterministic parts of the link budget — see
//! `DESIGN.md` §6 "Medium caching & invalidation" for the cache keys,
//! the invalidation rules, and the bit-for-bit determinism argument.
//! [`Medium::cache_stats`] exposes hit/miss counters for observability.
//!
//! # Spatial interference culling
//!
//! Path loss makes distant transmitters physically irrelevant, so the
//! medium additionally maintains a uniform grid over device positions
//! and gives every transmission a deterministic **hearing radius**: the
//! distance at which its TX power plus a worst-case shadowing/fading
//! margin falls below the configured floor (see [`CullingConfig`]).
//! Queries visit only the 3×3 cell neighbourhood of the observer (plus
//! an overflow list of transmissions louder than one cell), which keeps
//! per-query cost near-constant as the world grows. The cutoff is part
//! of the channel-model *semantics* — a link beyond the radius couples
//! [`Dbm::FLOOR`] / zero power and draws **no** shadowing or fading
//! realisation — so grid-accelerated and brute-force evaluation agree
//! bit-for-bit, RNG stream included. The default configuration is
//! conservative (kilometre-scale radii): room-scale scenarios are
//! byte-identical with culling on. See `DESIGN.md` §10 "Spatial culling
//! & hearing radius"; [`Medium::grid_stats`] exposes cull counters.

use std::hash::BuildHasherDefault;

use rand::rngs::StdRng;

use bicord_phy::geometry::Point;
use bicord_phy::pathloss::PathLossModel;
use bicord_phy::spectrum::Band;
use bicord_phy::units::{Dbm, MilliWatt};
use bicord_sim::dist::normal;
use bicord_sim::event::FastMap;
use bicord_sim::{stream_rng, SeedDomain, SimTime};

use crate::frames::{DeviceId, Payload};

/// A `(tx band, listening band)` pair keyed by the exact bit patterns of
/// the four band edges — bit-identical inputs are the only ones allowed
/// to share a memoized overlap fraction.
type BandPairKey = [u64; 4];

/// Distinct `(tx band, listening band)` pairs per scenario are a small
/// constant (Wi-Fi/ZigBee/Bluetooth cross products); cap the memo so a
/// pathological caller cannot grow it without bound.
const BAND_MEMO_CAP: usize = 32;

/// Identifies one transmission placed on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(u64);

/// One transmission occupying the medium for `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// The transmission's identifier.
    pub id: TxId,
    /// The emitting device.
    pub source: DeviceId,
    /// Transmit power.
    pub power: Dbm,
    /// Occupied frequency band.
    pub band: Band,
    /// Start instant.
    pub start: SimTime,
    /// End instant (start + airtime).
    pub end: SimTime,
    /// What the transmission carries.
    pub payload: Payload,
}

impl Transmission {
    /// `true` if the transmission is on air during `[from, to)`.
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && self.end > from
    }
}

/// Spatial-culling parameters: when is a transmitter too far to matter?
///
/// A transmission at `p` dBm is audible out to the distance where
/// `p + margin_db − PL(d)` reaches `floor`; beyond that the medium
/// couples zero power and skips the link's lazy shadowing/fading draws
/// entirely. The cutoff is deterministic (positions and powers only), so
/// it is part of the channel model's semantics, not a lossy
/// approximation layered on top — a brute-force evaluation with the
/// same config produces bit-identical results.
///
/// The default is deliberately conservative: a −120 dBm floor with a
/// 36 dB margin (6σ of the office 3 dB shadowing + 3 dB fading) puts
/// radii at tens of kilometres, so room-scale scenarios never cull.
/// Dense large-world scenarios override the floor/margin to get real
/// culling (see `bicord-scenario`'s `dense_city`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CullingConfig {
    /// Largest TX power the scenario will place on the medium; sizes the
    /// grid cells so any compliant transmission fits one 3×3 query
    /// window. Louder transmissions still work — they go on a small
    /// always-visited overflow list.
    pub max_tx_power: Dbm,
    /// In-band power below this level (after the margin) is defined as
    /// inaudible.
    pub floor: Dbm,
    /// Headroom added on top of the mean link budget before comparing
    /// against `floor`, covering worst-case positive shadowing + fading
    /// excursions, dB.
    pub margin_db: f64,
}

impl CullingConfig {
    /// The hearing radius (metres) of a transmission at `tx_power` under
    /// `model`: the distance at which `tx_power + margin − PL(d)` drops
    /// to `floor`. Zero when the power is below the floor outright;
    /// infinite when the budget never runs out (e.g. an infinite floor).
    pub fn hearing_radius_m(&self, model: &PathLossModel, tx_power: Dbm) -> f64 {
        let budget_db = (tx_power.value() + self.margin_db) - self.floor.value();
        if budget_db <= 0.0 {
            return 0.0;
        }
        model.distance_for_path_loss_db(budget_db)
    }
}

impl Default for CullingConfig {
    fn default() -> Self {
        CullingConfig {
            max_tx_power: Dbm::new(30.0),
            floor: Dbm::new(-120.0),
            margin_db: 36.0,
        }
    }
}

/// Configuration of the medium's stochastic channel components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Propagation model.
    pub path_loss: PathLossModel,
    /// Std-dev of the per-transmission fading draw, dB. This is the
    /// fast-fading component that makes individual packets more or less
    /// visible to a given observer.
    pub fading_sigma_db: f64,
    /// Spatial interference culling (on by default with conservative
    /// radii; see [`CullingConfig`]).
    pub culling: CullingConfig,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            path_loss: PathLossModel::office(),
            fading_sigma_db: 3.0,
            culling: CullingConfig::default(),
        }
    }
}

/// The shared RF medium.
///
/// # Example
///
/// ```
/// use bicord_mac::frames::{DeviceId, Payload};
/// use bicord_mac::medium::{ChannelConfig, Medium};
/// use bicord_phy::geometry::Point;
/// use bicord_phy::spectrum::WifiChannel;
/// use bicord_phy::units::Dbm;
/// use bicord_sim::SimTime;
///
/// let mut medium = Medium::new(ChannelConfig::default(), 42);
/// let tx = DeviceId::new(0);
/// let rx = DeviceId::new(1);
/// medium.add_device(tx, Point::new(0.0, 0.0));
/// medium.add_device(rx, Point::new(3.0, 0.0));
///
/// let band = WifiChannel::new(11)?.band();
/// let id = medium.begin_transmission(
///     tx, Dbm::new(20.0), band, SimTime::ZERO, SimTime::from_millis(1), Payload::Noise,
/// );
/// let sensed = medium.sensed_power(rx, &band, SimTime::from_micros(500), None);
/// assert!(sensed.to_dbm().value() > -70.0);
/// medium.end_transmission(id);
/// # Ok::<(), bicord_phy::spectrum::ChannelError>(())
/// ```
pub struct Medium {
    config: ChannelConfig,
    /// Device id → slot into the position SoA below.
    devices: FastMap<DeviceId, u32>,
    /// Live position per device slot (struct-of-arrays: the only
    /// per-device field the query hot loop touches).
    positions: Vec<Point>,
    /// Active transmissions, in slab order (**not** id order: removal is
    /// `swap_remove`). Queries never iterate this directly — they sort
    /// gathered candidate ids, so evaluation order stays deterministic
    /// regardless of slab layout.
    active: Vec<Transmission>,
    /// Transmission id → slab index. O(1) candidate→slab resolution with
    /// a bounded working set per lookup, where a binary search over a
    /// sorted id array costs `log n` scattered probes per candidate at
    /// 10k-device scale.
    slab: FastMap<TxId, u32>,
    /// Hot per-transmission fields, parallel to `active`: the cull loop
    /// reads these (time window, source slot, hearing radius, grid cell)
    /// without pulling the full `Transmission` into cache.
    hot: Vec<TxHot>,
    /// Per-transmission fading draws, parallel to `active`: the
    /// `(observer, dB)` realisations drawn so far for the transmission at
    /// the same slab index. Ending a transmission `swap_remove`s its list
    /// with the slab, so teardown never scans other transmissions' draws.
    fading: Vec<Vec<(DeviceId, f64)>>,
    /// Cleared fading lists of ended transmissions, reused by
    /// `begin_transmission` so begin/end churn does not allocate.
    fading_free: Vec<Vec<(DeviceId, f64)>>,
    /// Uniform grid over device positions: cell key → member
    /// transmissions (those whose hearing radius fits one cell).
    grid: FastMap<u64, Vec<TxId>>,
    /// Transmissions louder than one grid cell — always visited.
    loud: Vec<TxId>,
    /// Grid cell edge length, metres (infinite when the configured radii
    /// are unbounded, which degenerates to a single cell = no culling).
    cell_size_m: f64,
    /// Reusable query scratch for gathered candidate ids.
    candidates: Vec<TxId>,
    grid_stats: MediumGridStats,
    next_tx: u64,
    /// Static shadowing per unordered device pair, dB. The source of
    /// truth for realisations; `link_cache` only mirrors it.
    shadowing: FastMap<(DeviceId, DeviceId), f64>,
    /// Memoized `(path-loss dB, shadowing dB)` per directed
    /// `(source, observer)` pair at the devices' *current* positions.
    /// Invalidated whenever either endpoint moves.
    link_cache: FastMap<(DeviceId, DeviceId), (f64, f64)>,
    /// Memoized spectral overlap fractions per `(tx band, listening
    /// band)` pair.
    band_overlap: Vec<(BandPairKey, f64)>,
    stats: MediumCacheStats,
    shadowing_rng: StdRng,
    fading_rng: StdRng,
}

/// Cumulative hit/miss counters of the medium's memoization layers —
/// surfaced as `medium_cache_stats` trace records and through
/// `MetricsRegistry` in instrumented runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCacheStats {
    /// Link-budget queries answered from the `(source, observer)` cache.
    pub link_hits: u64,
    /// Link-budget queries that recomputed path loss (and possibly drew
    /// a shadowing realisation).
    pub link_misses: u64,
    /// Band-overlap queries answered from the memo.
    pub band_hits: u64,
    /// Band-overlap queries that computed the fraction.
    pub band_misses: u64,
}

/// Cumulative spatial-culling counters — surfaced as `medium_grid_stats`
/// trace records and `medium_culled_*` metrics in instrumented runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumGridStats {
    /// Grid-accelerated queries served (`sensed_power` +
    /// `interference_against`; `overlapping_into` takes `&self` and is
    /// not counted).
    pub queries: u64,
    /// Non-empty grid cells visited across those queries (≤ 9 each).
    pub cells_visited: u64,
    /// Candidate transmissions gathered and evaluated.
    pub tx_visited: u64,
    /// Active transmissions skipped without even a look because their
    /// cell was outside the observer's 3×3 window.
    pub tx_culled: u64,
    /// Gathered candidates rejected by the exact per-link hearing-radius
    /// check (cell-adjacent but still out of range).
    pub tx_out_of_range: u64,
}

/// Hot per-transmission fields, parallel to `Medium::active`.
///
/// Queries (`sensed_power`, `interference_against`) read *only* this
/// array plus `ids` per candidate — duplicating `power`/`band` here
/// keeps the fat `Transmission` slab (with its payload) out of the
/// query working set, which is what keeps per-query cost flat at 10k+
/// devices.
#[derive(Debug, Clone, Copy)]
struct TxHot {
    start: SimTime,
    end: SimTime,
    source: DeviceId,
    power: Dbm,
    band: Band,
    /// Slot of `source` in the position SoA.
    source_slot: u32,
    /// Squared hearing radius, m²; links farther than this couple zero.
    radius_sq_m2: f64,
    /// Grid cell the transmission is registered in (meaningless when
    /// `loud`). Stored so moves and removal rebucket the *registered*
    /// cell even if the source has since crossed a boundary.
    cell: u64,
    /// On the always-visited overflow list instead of the grid.
    loud: bool,
}

/// Grid coordinate of `v` under `cell_size` (saturating one step inside
/// `i32` so the ±1 neighbour offsets in queries cannot overflow). An
/// infinite cell size maps everything to coordinate 0.
fn cell_coord(v: f64, cell_size: f64) -> i32 {
    let q = (v / cell_size).floor();
    q.clamp(f64::from(i32::MIN + 1), f64::from(i32::MAX - 1)) as i32
}

/// Packs two grid coordinates into one hashable key.
fn cell_key(cx: i32, cy: i32) -> u64 {
    (u64::from(cx as u32) << 32) | u64::from(cy as u32)
}

impl Medium {
    /// Creates an empty medium with the given channel configuration and
    /// master seed.
    pub fn new(config: ChannelConfig, master_seed: u64) -> Self {
        // One cell = the worst-case hearing radius, so a compliant
        // transmission audible at the observer is always within the 3×3
        // neighbourhood. Clamped away from degenerate tiny cells; an
        // unbounded radius collapses the grid to a single cell.
        let cell_size_m = config
            .culling
            .hearing_radius_m(&config.path_loss, config.culling.max_tx_power)
            .max(1.0);
        Medium {
            config,
            devices: FastMap::with_capacity_and_hasher(64, BuildHasherDefault::default()),
            positions: Vec::with_capacity(64),
            active: Vec::with_capacity(16),
            slab: FastMap::with_capacity_and_hasher(16, BuildHasherDefault::default()),
            hot: Vec::with_capacity(16),
            fading: Vec::with_capacity(16),
            fading_free: Vec::new(),
            grid: FastMap::with_capacity_and_hasher(64, BuildHasherDefault::default()),
            loud: Vec::new(),
            cell_size_m,
            candidates: Vec::with_capacity(16),
            grid_stats: MediumGridStats::default(),
            next_tx: 0,
            shadowing: FastMap::default(),
            link_cache: FastMap::with_capacity_and_hasher(64, BuildHasherDefault::default()),
            band_overlap: Vec::with_capacity(BAND_MEMO_CAP),
            stats: MediumCacheStats::default(),
            shadowing_rng: stream_rng(master_seed, SeedDomain::Shadowing, 0),
            fading_rng: stream_rng(master_seed, SeedDomain::Shadowing, 1),
        }
    }

    /// Slot of a registered device in the position SoA.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    fn slot_of(&self, id: DeviceId) -> u32 {
        *self
            .devices
            .get(&id)
            .unwrap_or_else(|| panic!("unknown device {id}"))
    }

    /// Registers a device at `position`.
    ///
    /// Re-registering an existing device moves it (used by mobility).
    pub fn add_device(&mut self, id: DeviceId, position: Point) {
        if let Some(&slot) = self.devices.get(&id) {
            // A re-registration is a move: cached path losses involving
            // this device are stale (shadowing realisations persist until
            // `invalidate_shadowing`, exactly as before the cache), and
            // the device's live transmissions rebucket in the same step.
            self.move_device(slot, position);
            self.drop_link_cache(id);
        } else {
            let slot = u32::try_from(self.positions.len()).expect("device slots exhausted");
            self.devices.insert(id, slot);
            self.positions.push(position);
        }
    }

    /// Moves a device.
    ///
    /// Cached link budgets touching the device are dropped (path loss is
    /// position-dependent) and the device's live transmissions rebucket
    /// into their new grid cell in the same atomic step; its shadowing
    /// realisations persist until [`Medium::invalidate_shadowing`].
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    pub fn set_position(&mut self, id: DeviceId, position: Point) {
        let slot = self.slot_of(id);
        self.move_device(slot, position);
        self.drop_link_cache(id);
    }

    /// Updates a device slot's position and rebuckets its live
    /// transmissions whose registered grid cell no longer matches.
    fn move_device(&mut self, slot: u32, position: Point) {
        self.positions[slot as usize] = position;
        let new_cell = cell_key(
            cell_coord(position.x, self.cell_size_m),
            cell_coord(position.y, self.cell_size_m),
        );
        for idx in 0..self.hot.len() {
            let h = self.hot[idx];
            if h.source_slot != slot || h.loud || h.cell == new_cell {
                continue;
            }
            let id = self.active[idx].id;
            let members = self.grid.get_mut(&h.cell).expect("grid cell desync");
            let at = members
                .iter()
                .position(|&t| t == id)
                .expect("grid member desync");
            members.swap_remove(at);
            self.grid.entry(new_cell).or_default().push(id);
            self.hot[idx].cell = new_cell;
        }
    }

    /// Drops memoized link budgets for every pair touching `device`.
    fn drop_link_cache(&mut self, device: DeviceId) {
        self.link_cache
            .retain(|(a, b), _| *a != device && *b != device);
    }

    /// The device's current position.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    pub fn position(&self, id: DeviceId) -> Point {
        self.positions[self.slot_of(id) as usize]
    }

    /// Places a transmission on the medium and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` or the source device is unknown.
    pub fn begin_transmission(
        &mut self,
        source: DeviceId,
        power: Dbm,
        band: Band,
        start: SimTime,
        end: SimTime,
        payload: Payload,
    ) -> TxId {
        assert!(end > start, "transmission must have positive duration");
        let slot = *self
            .devices
            .get(&source)
            .unwrap_or_else(|| panic!("unknown source device {source}"));
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.slab.insert(id, self.active.len() as u32);
        self.active.push(Transmission {
            id,
            source,
            power,
            band,
            start,
            end,
            payload,
        });
        let radius = self
            .config
            .culling
            .hearing_radius_m(&self.config.path_loss, power);
        let pos = self.positions[slot as usize];
        let cell = cell_key(
            cell_coord(pos.x, self.cell_size_m),
            cell_coord(pos.y, self.cell_size_m),
        );
        // Radius ≤ one cell ⇒ the 3×3 window around any in-range observer
        // covers this cell; louder transmissions go on the overflow list.
        // (Neither side is ever NaN: radii and cell sizes are `max`-ed
        // non-negative, possibly infinite.)
        let loud = radius > self.cell_size_m;
        if loud {
            self.loud.push(id);
        } else {
            self.grid.entry(cell).or_default().push(id);
        }
        self.hot.push(TxHot {
            start,
            end,
            source,
            power,
            band,
            source_slot: slot,
            radius_sq_m2: radius * radius,
            cell,
            loud,
        });
        self.fading.push(self.fading_free.pop().unwrap_or_default());
        id
    }

    /// Position of `id` in the slab, if active.
    fn slab_index(&self, id: TxId) -> Option<usize> {
        self.slab.get(&id).map(|&i| i as usize)
    }

    /// Removes a finished transmission and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the transmission is not active (double removal is a
    /// scenario bookkeeping bug worth failing loudly on).
    pub fn end_transmission(&mut self, id: TxId) -> Transmission {
        let idx = self
            .slab_index(id)
            .unwrap_or_else(|| panic!("transmission {id:?} not active"));
        self.slab.remove(&id);
        let tx = self.active.swap_remove(idx);
        let h = self.hot.swap_remove(idx);
        let mut draws = self.fading.swap_remove(idx);
        draws.clear();
        self.fading_free.push(draws);
        // The former tail now lives at `idx`; repoint its index entry.
        if let Some(moved) = self.active.get(idx) {
            self.slab.insert(moved.id, idx as u32);
        }
        // Unbucket (order within a cell is irrelevant — queries sort the
        // gathered candidates by id).
        if h.loud {
            let at = self
                .loud
                .iter()
                .position(|&t| t == id)
                .expect("loud list desync");
            self.loud.swap_remove(at);
        } else {
            let members = self.grid.get_mut(&h.cell).expect("grid cell desync");
            let at = members
                .iter()
                .position(|&t| t == id)
                .expect("grid member desync");
            members.swap_remove(at);
        }
        tx
    }

    /// A transmission by id, if still active.
    pub fn transmission(&self, id: TxId) -> Option<&Transmission> {
        self.slab_index(id).map(|i| &self.active[i])
    }

    /// Iterates over all active transmissions in **arbitrary** slab
    /// order. Callers whose downstream work is order-sensitive (lazy RNG
    /// draws, f64 summation) must sort the snapshot by [`Transmission::id`]
    /// themselves.
    pub fn active_transmissions(&self) -> impl Iterator<Item = &Transmission> {
        self.active.iter()
    }

    /// Number of active transmissions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The static shadowing offset (dB) of the link between two devices.
    fn link_shadowing(&mut self, a: DeviceId, b: DeviceId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        let sigma = self.config.path_loss.shadowing_sigma_db();
        let rng = &mut self.shadowing_rng;
        *self
            .shadowing
            .entry(key)
            .or_insert_with(|| normal(rng, 0.0, sigma))
    }

    /// The fading offset (dB) `observer` experiences for the transmission
    /// at slab index `idx`; drawn on first use and stored with the
    /// transmission.
    fn tx_fading(&mut self, idx: usize, observer: DeviceId) -> f64 {
        let draws = &mut self.fading[idx];
        if let Some(&(_, db)) = draws.iter().find(|(o, _)| *o == observer) {
            return db;
        }
        let db = normal(&mut self.fading_rng, 0.0, self.config.fading_sigma_db);
        draws.push((observer, db));
        db
    }

    /// The memoized `(path-loss dB, shadowing dB)` budget of the directed
    /// link `source -> observer` at the devices' current positions.
    ///
    /// A miss recomputes path loss from the live positions and reads (or
    /// lazily draws) the link's shadowing realisation — in exactly the
    /// order the uncached query used, so RNG consumption is unchanged.
    fn link_budget(&mut self, source: DeviceId, observer: DeviceId) -> (f64, f64) {
        if let Some(&cached) = self.link_cache.get(&(source, observer)) {
            self.stats.link_hits += 1;
            return cached;
        }
        self.stats.link_misses += 1;
        let src_pos = self.position(source);
        let obs_pos = self.position(observer);
        let pl_db = self
            .config
            .path_loss
            .path_loss_db(src_pos.distance_to(obs_pos));
        let shadow = self.link_shadowing(source, observer);
        self.link_cache.insert((source, observer), (pl_db, shadow));
        (pl_db, shadow)
    }

    /// The memoized spectral overlap fraction of `tx_band` into
    /// `listening`, keyed by the exact bit patterns of the band edges.
    fn band_overlap_fraction(&mut self, tx_band: &Band, listening: &Band) -> f64 {
        let key: BandPairKey = [
            tx_band.low_mhz.to_bits(),
            tx_band.high_mhz.to_bits(),
            listening.low_mhz.to_bits(),
            listening.high_mhz.to_bits(),
        ];
        if let Some(&(_, fraction)) = self.band_overlap.iter().find(|(k, _)| *k == key) {
            self.stats.band_hits += 1;
            return fraction;
        }
        self.stats.band_misses += 1;
        let fraction = tx_band.overlap_fraction(listening);
        if self.band_overlap.len() < BAND_MEMO_CAP {
            self.band_overlap.push((key, fraction));
        }
        fraction
    }

    /// Cumulative cache hit/miss counters since construction.
    pub fn cache_stats(&self) -> MediumCacheStats {
        self.stats
    }

    /// Cumulative spatial-culling counters since construction.
    pub fn grid_stats(&self) -> MediumGridStats {
        self.grid_stats
    }

    /// The grid cell edge length, metres (the worst-case hearing radius
    /// under the configured culling parameters).
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }

    /// Whether the transmitter in slot `a` is within `radius_sq` of the
    /// observer in slot `b` — the exact per-link audibility cutoff.
    fn within_hearing(&self, a: u32, b: u32, radius_sq: f64) -> bool {
        let pa = self.positions[a as usize];
        let pb = self.positions[b as usize];
        let dx = pa.x - pb.x;
        let dy = pa.y - pb.y;
        dx * dx + dy * dy <= radius_sq
    }

    /// Gathers the candidate transmissions for an observer in `obs_slot`
    /// into the reusable scratch: the 3×3 cell neighbourhood plus the
    /// loud overflow list, sorted ascending by [`TxId`] so evaluation
    /// (and therefore every lazy RNG draw) happens in exactly the order
    /// a full-slab scan would use.
    fn gather_candidates(&mut self, obs_slot: u32) {
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        let pos = self.positions[obs_slot as usize];
        let cx = cell_coord(pos.x, self.cell_size_m);
        let cy = cell_coord(pos.y, self.cell_size_m);
        let mut cells = 0u64;
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if let Some(members) = self.grid.get(&cell_key(cx + dx, cy + dy)) {
                    if !members.is_empty() {
                        cells += 1;
                        cands.extend_from_slice(members);
                    }
                }
            }
        }
        cands.extend_from_slice(&self.loud);
        cands.sort_unstable();
        self.grid_stats.queries += 1;
        self.grid_stats.cells_visited += cells;
        self.grid_stats.tx_visited += cands.len() as u64;
        self.grid_stats.tx_culled += (self.active.len() - cands.len()) as u64;
        self.candidates = cands;
    }

    /// [`Medium::received_power`] for a transmission at slab index `idx`
    /// observed from `obs_slot`.
    ///
    /// The arithmetic is kept in exactly the uncached form — `(power -
    /// path_loss) + shadow + fading`, in that association — so memoized
    /// and fresh budgets produce bit-identical `Dbm` values. A link past
    /// its hearing radius returns [`Dbm::FLOOR`] **before** touching the
    /// shadowing/fading streams: culling never shifts RNG draw order,
    /// it only removes draws both evaluation orders would skip.
    fn received_power_at(&mut self, idx: usize, observer: DeviceId, obs_slot: u32) -> Dbm {
        let h = self.hot[idx];
        if h.source == observer {
            return Dbm::FLOOR;
        }
        if !self.within_hearing(h.source_slot, obs_slot, h.radius_sq_m2) {
            self.grid_stats.tx_out_of_range += 1;
            return Dbm::FLOOR;
        }
        self.budget_power(idx, observer)
    }

    /// The full stochastic link budget of an in-range, non-self link
    /// (callers perform both checks first).
    fn budget_power(&mut self, idx: usize, observer: DeviceId) -> Dbm {
        let h = self.hot[idx];
        let (pl_db, shadow) = self.link_budget(h.source, observer);
        let fading = self.tx_fading(idx, observer);
        (h.power - pl_db) + shadow + fading
    }

    /// Power of transmission `tx` received by `observer`, before any
    /// spectral-overlap weighting.
    ///
    /// Includes path loss, static link shadowing, and the cached
    /// per-transmission fading draw. A device does not receive its own
    /// transmission, and a transmitter beyond its hearing radius is
    /// inaudible by definition ([`Dbm::FLOOR`] is returned either way).
    ///
    /// # Panics
    ///
    /// Panics if the transmission or observer is unknown.
    pub fn received_power(&mut self, tx: TxId, observer: DeviceId) -> Dbm {
        let idx = self
            .slab_index(tx)
            .unwrap_or_else(|| panic!("transmission {tx:?} not active"));
        let obs_slot = self.slot_of(observer);
        self.received_power_at(idx, observer, obs_slot)
    }

    /// Power of transmission `tx` coupled into `observer`'s `listening`
    /// band, as linear power.
    ///
    /// Under the flat-spectrum approximation the coupled fraction is the
    /// share of the *transmitter's* band that falls inside the listening
    /// band: a 2 MHz ZigBee frame lands entirely inside a 20 MHz Wi-Fi
    /// channel (full power reaches the Wi-Fi energy detector), while a
    /// 20 MHz Wi-Fi frame deposits only 1/10 of its power into a 2 MHz
    /// ZigBee receiver.
    pub fn received_power_in_band(
        &mut self,
        tx: TxId,
        observer: DeviceId,
        listening: &Band,
    ) -> MilliWatt {
        let idx = self
            .slab_index(tx)
            .unwrap_or_else(|| panic!("transmission {tx:?} not active"));
        let obs_slot = self.slot_of(observer);
        self.in_band_power_at(idx, observer, obs_slot, listening)
    }

    /// [`Medium::received_power_in_band`] for a transmission at slab
    /// index `idx`. Zero band overlap (checked first, as always) and
    /// out-of-range links both couple exactly [`MilliWatt::ZERO`]
    /// without consuming RNG — skipping such a term leaves a linear
    /// power sum bit-identical, which is what lets the grid drop
    /// out-of-window transmissions entirely. A device's own
    /// transmission keeps the historical floor conversion.
    fn in_band_power_at(
        &mut self,
        idx: usize,
        observer: DeviceId,
        obs_slot: u32,
        listening: &Band,
    ) -> MilliWatt {
        let h = self.hot[idx];
        let overlap = self.band_overlap_fraction(&h.band, listening);
        if overlap <= 0.0 {
            return MilliWatt::ZERO;
        }
        if h.source == observer {
            return Dbm::FLOOR.to_milliwatt().scale(overlap);
        }
        if !self.within_hearing(h.source_slot, obs_slot, h.radius_sq_m2) {
            self.grid_stats.tx_out_of_range += 1;
            return MilliWatt::ZERO;
        }
        self.budget_power(idx, observer)
            .to_milliwatt()
            .scale(overlap)
    }

    /// Total in-band power `observer` senses at `now`, excluding
    /// transmissions from `exclude_source` (a device never senses itself,
    /// and a receiver evaluating a frame excludes that frame's source).
    ///
    /// Allocation-free in steady state: candidates from the observer's
    /// 3×3 grid neighbourhood are gathered into a reusable scratch and
    /// sorted by id, so lazy fading draws and the linear f64 summation
    /// happen in the same ascending-`TxId` order a full-slab scan
    /// produces (skipped out-of-range contributions are exactly the
    /// zero terms of that sum).
    pub fn sensed_power(
        &mut self,
        observer: DeviceId,
        listening: &Band,
        now: SimTime,
        exclude_source: Option<DeviceId>,
    ) -> MilliWatt {
        let obs_slot = self.slot_of(observer);
        self.gather_candidates(obs_slot);
        let cands = std::mem::take(&mut self.candidates);
        let mut total = MilliWatt::ZERO;
        for &id in &cands {
            let idx = self.slab_index(id).expect("grid candidate not in slab");
            let h = self.hot[idx];
            if h.start > now
                || h.end <= now
                || h.source == observer
                || Some(h.source) == exclude_source
            {
                continue;
            }
            total += self.in_band_power_at(idx, observer, obs_slot, listening);
        }
        self.candidates = cands;
        total
    }

    /// Interference power against transmission `signal` at `observer`:
    /// the in-band sum of every *other* transmission overlapping `signal`'s
    /// airtime, evaluated over the whole frame (worst case: any overlap
    /// counts for its full coupled power).
    ///
    /// Allocation-free; same gathered id-ordered evaluation as
    /// [`Medium::sensed_power`].
    pub fn interference_against(
        &mut self,
        signal: TxId,
        observer: DeviceId,
        listening: &Band,
    ) -> MilliWatt {
        let sidx = self
            .slab_index(signal)
            .unwrap_or_else(|| panic!("transmission {signal:?} not active"));
        let (s_start, s_end) = (self.hot[sidx].start, self.hot[sidx].end);
        let obs_slot = self.slot_of(observer);
        self.gather_candidates(obs_slot);
        let cands = std::mem::take(&mut self.candidates);
        let mut total = MilliWatt::ZERO;
        for &id in &cands {
            let idx = self.slab_index(id).expect("grid candidate not in slab");
            let h = self.hot[idx];
            if id == signal || h.source == observer || !(h.start < s_end && h.end > s_start) {
                continue;
            }
            total += self.in_band_power_at(idx, observer, obs_slot, listening);
        }
        self.candidates = cands;
        total
    }

    /// The SINR (dB) of transmission `signal` at `observer` listening on
    /// `listening`, against `noise_floor`.
    pub fn sinr_db(
        &mut self,
        signal: TxId,
        observer: DeviceId,
        listening: &Band,
        noise_floor: Dbm,
    ) -> f64 {
        let s = self.received_power(signal, observer);
        let i = self.interference_against(signal, observer, listening);
        bicord_phy::units::sinr_db(s, i, noise_floor)
    }

    /// Active transmissions (other than `observer`'s own) whose airtime
    /// overlaps `[from, to)` and whose band overlaps `listening`.
    pub fn overlapping(
        &self,
        observer: DeviceId,
        listening: &Band,
        from: SimTime,
        to: SimTime,
    ) -> Vec<Transmission> {
        let mut txs = Vec::new();
        self.overlapping_into(observer, listening, from, to, &mut txs);
        txs
    }

    /// [`Medium::overlapping`] into a caller-owned buffer (cleared
    /// first), so repeated queries reuse one allocation.
    ///
    /// Visits only the observer's 3×3 grid neighbourhood plus the loud
    /// overflow list; out-of-range transmissions are inaudible by the
    /// culling definition and excluded like band-disjoint ones. The
    /// final `(start, id)` sort makes gathering order irrelevant.
    pub fn overlapping_into(
        &self,
        observer: DeviceId,
        listening: &Band,
        from: SimTime,
        to: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        out.clear();
        let obs_slot = self.slot_of(observer);
        let pos = self.positions[obs_slot as usize];
        let cx = cell_coord(pos.x, self.cell_size_m);
        let cy = cell_coord(pos.y, self.cell_size_m);
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if let Some(members) = self.grid.get(&cell_key(cx + dx, cy + dy)) {
                    for &id in members {
                        self.push_if_overlapping(id, observer, obs_slot, listening, from, to, out);
                    }
                }
            }
        }
        for &id in &self.loud {
            self.push_if_overlapping(id, observer, obs_slot, listening, from, to, out);
        }
        out.sort_by_key(|t| (t.start, t.id));
    }

    /// Appends transmission `id` to `out` if it passes the overlap
    /// filters of [`Medium::overlapping_into`].
    #[allow(clippy::too_many_arguments)]
    fn push_if_overlapping(
        &self,
        id: TxId,
        observer: DeviceId,
        obs_slot: u32,
        listening: &Band,
        from: SimTime,
        to: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        let idx = self.slab_index(id).expect("grid candidate not in slab");
        let t = self.active[idx];
        if t.source == observer
            || !t.overlaps(from, to)
            || listening.overlap_fraction(&t.band) <= 0.0
        {
            return;
        }
        let h = self.hot[idx];
        if !self.within_hearing(h.source_slot, obs_slot, h.radius_sq_m2) {
            return;
        }
        out.push(t);
    }

    /// Draws a fresh random value from the medium's fading stream —
    /// used by scenario code that needs channel-correlated randomness
    /// without owning another RNG.
    pub fn fading_draw(&mut self, sigma_db: f64) -> f64 {
        normal(&mut self.fading_rng, 0.0, sigma_db)
    }

    /// Clears cached shadowing for links touching `device` — called when a
    /// device moves materially (the realisation is position-dependent).
    /// Memoized link budgets touching the device are dropped with it.
    ///
    /// Returns the number of shadowing realisations discarded.
    pub fn invalidate_shadowing(&mut self, device: DeviceId) -> usize {
        let before = self.shadowing.len();
        self.shadowing
            .retain(|(a, b), _| *a != device && *b != device);
        self.drop_link_cache(device);
        before - self.shadowing.len()
    }
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("devices", &self.devices.len())
            .field("active", &self.active.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{WifiFrameKind, WifiPriority, ZigbeeFrameKind};
    use bicord_phy::spectrum::{WifiChannel, ZigbeeChannel};
    use bicord_sim::SimDuration;

    fn wifi_band() -> Band {
        WifiChannel::new(11).unwrap().band()
    }

    fn zigbee_band() -> Band {
        ZigbeeChannel::new(24).unwrap().band()
    }

    fn setup() -> Medium {
        let mut m = Medium::new(ChannelConfig::default(), 77);
        m.add_device(DeviceId::new(0), Point::new(0.0, 0.0)); // Wi-Fi TX (E)
        m.add_device(DeviceId::new(1), Point::new(3.0, 0.0)); // Wi-Fi RX (F)
        m.add_device(DeviceId::new(2), Point::new(4.2, 1.0)); // ZigBee at A
        m
    }

    fn wifi_data() -> Payload {
        Payload::Wifi(WifiFrameKind::Data {
            mpdu_bytes: 100,
            priority: WifiPriority::Low,
        })
    }

    #[test]
    fn transmissions_lifecycle() {
        let mut m = setup();
        assert_eq!(m.active_count(), 0);
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        assert_eq!(m.active_count(), 1);
        assert!(m.transmission(id).is_some());
        let t = m.end_transmission(id);
        assert_eq!(t.id, id);
        assert_eq!(m.active_count(), 0);
        assert!(m.transmission(id).is_none());
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_end_panics() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        m.end_transmission(id);
        m.end_transmission(id);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        let mut m = setup();
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(1),
            SimTime::from_millis(1),
            wifi_data(),
        );
    }

    #[test]
    fn received_power_is_consistent_across_queries() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let p1 = m.received_power(id, DeviceId::new(1));
        let p2 = m.received_power(id, DeviceId::new(1));
        assert_eq!(p1, p2, "fading draw must be cached per (tx, observer)");
    }

    #[test]
    fn own_transmission_is_not_received() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        assert_eq!(m.received_power(id, DeviceId::new(0)), Dbm::FLOOR);
    }

    #[test]
    fn received_power_reasonable_at_3m() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        // Mean is 20 - (46 + 30 log10 3) = -40.3 dBm; shadowing+fading add
        // a few dB of spread.
        let p = m.received_power(id, DeviceId::new(1)).value();
        assert!((-60.0..-25.0).contains(&p), "rx power {p} dBm");
    }

    #[test]
    fn out_of_band_transmission_couples_nothing() {
        let mut m = setup();
        // ZigBee channel 11 (2405 MHz) vs Wi-Fi channel 11 (2452-2472):
        // disjoint.
        let far_band = ZigbeeChannel::new(11).unwrap().band();
        let id = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            far_band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Zigbee(ZigbeeFrameKind::Control { mpdu_bytes: 120 }),
        );
        let p = m.received_power_in_band(id, DeviceId::new(1), &wifi_band());
        assert_eq!(p, MilliWatt::ZERO);
    }

    #[test]
    fn coupling_direction_is_asymmetric() {
        let mut m = setup();
        // A narrowband ZigBee frame deposits its FULL power into a Wi-Fi
        // energy detector (its 2 MHz sit inside the 20 MHz channel):
        let id = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Zigbee(ZigbeeFrameKind::Control { mpdu_bytes: 120 }),
        );
        let full = m.received_power(id, DeviceId::new(1)).to_milliwatt();
        let at_wifi = m.received_power_in_band(id, DeviceId::new(1), &wifi_band());
        assert!((at_wifi.value() - full.value()).abs() < 1e-15);
        m.end_transmission(id);
        // ... while a wideband Wi-Fi frame couples only 1/10 into a 2 MHz
        // ZigBee receiver:
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let full = m.received_power(id, DeviceId::new(2)).to_milliwatt();
        let at_zigbee = m.received_power_in_band(id, DeviceId::new(2), &zigbee_band());
        assert!((at_zigbee.value() / full.value() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn sensed_power_sums_concurrent_transmissions() {
        let mut m = setup();
        let now = SimTime::from_micros(500);
        let t1 = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let single = m.sensed_power(DeviceId::new(2), &zigbee_band(), now, None);
        let _t2 = m.begin_transmission(
            DeviceId::new(1),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let both = m.sensed_power(DeviceId::new(2), &zigbee_band(), now, None);
        assert!(both.value() > single.value());
        // Excluding device 0 removes t1's contribution:
        let excl = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            now,
            Some(DeviceId::new(0)),
        );
        assert!(excl.value() < both.value());
        let _ = t1;
    }

    #[test]
    fn sensed_power_respects_time_window() {
        let mut m = setup();
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(2),
            SimTime::from_millis(3),
            wifi_data(),
        );
        let before = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_millis(1),
            None,
        );
        let during = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_micros(2_500),
            None,
        );
        assert_eq!(before, MilliWatt::ZERO);
        assert!(during.value() > 0.0);
    }

    #[test]
    fn sinr_collapses_under_cochannel_interference() {
        let mut m = setup();
        // ZigBee signal from A to a receiver colocated with F.
        let sig = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(2),
            Payload::Zigbee(ZigbeeFrameKind::Data {
                mpdu_bytes: 50,
                seq: 0,
            }),
        );
        let clean = m.sinr_db(
            sig,
            DeviceId::new(1),
            &zigbee_band(),
            bicord_phy::noise::ZIGBEE_NOISE_FLOOR,
        );
        // Start the Wi-Fi sender on the overlapping channel:
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(2),
            wifi_data(),
        );
        let jammed = m.sinr_db(
            sig,
            DeviceId::new(1),
            &zigbee_band(),
            bicord_phy::noise::ZIGBEE_NOISE_FLOOR,
        );
        assert!(clean > 20.0, "clean SINR {clean}");
        assert!(jammed < 0.0, "jammed SINR {jammed}");
    }

    #[test]
    fn overlapping_filters_and_sorts() {
        let mut m = setup();
        let a = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            wifi_data(),
        );
        let b = m.begin_transmission(
            DeviceId::new(1),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(3),
            SimTime::from_millis(4),
            wifi_data(),
        );
        let hits = m.overlapping(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, a);
        assert_eq!(hits[1].id, b);
        // A window touching only the second:
        let hits = m.overlapping(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_micros(2_500),
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
        // The observer's own transmissions are excluded:
        let hits = m.overlapping(
            DeviceId::new(0),
            &zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
    }

    #[test]
    fn mobility_updates_position_and_shadowing() {
        let mut m = setup();
        let d = DeviceId::new(2);
        assert_eq!(m.position(d), Point::new(4.2, 1.0));
        m.set_position(d, Point::new(1.0, 1.0));
        assert_eq!(m.position(d), Point::new(1.0, 1.0));
        m.invalidate_shadowing(d);
        // Closer now: received power should be higher on average. Compare
        // mean over several transmissions to wash out fading.
        let mut totals = [0.0f64; 2];
        for (i, pos) in [Point::new(1.0, 0.5), Point::new(8.0, 8.0)]
            .iter()
            .enumerate()
        {
            m.set_position(d, *pos);
            m.invalidate_shadowing(d);
            for k in 0..40 {
                let id = m.begin_transmission(
                    DeviceId::new(0),
                    Dbm::new(20.0),
                    wifi_band(),
                    SimTime::from_millis(10 + k),
                    SimTime::from_millis(11 + k),
                    wifi_data(),
                );
                totals[i] += m.received_power(id, d).value();
                m.end_transmission(id);
            }
        }
        assert!(totals[0] / 40.0 > totals[1] / 40.0 + 10.0);
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unknown_device_position_panics() {
        let m = setup();
        let _ = m.position(DeviceId::new(99));
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut m = Medium::new(ChannelConfig::default(), seed);
            m.add_device(DeviceId::new(0), Point::new(0.0, 0.0));
            m.add_device(DeviceId::new(1), Point::new(3.0, 0.0));
            let id = m.begin_transmission(
                DeviceId::new(0),
                Dbm::new(20.0),
                WifiChannel::new(11).unwrap().band(),
                SimTime::ZERO,
                SimTime::from_millis(1),
                Payload::Noise,
            );
            m.received_power(id, DeviceId::new(1)).value()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random interleaving of begin/end operations keeps the medium
        /// bookkeeping consistent.
        #[derive(Debug, Clone)]
        enum Op {
            Begin {
                device: u8,
                start_ms: u64,
                len_ms: u64,
            },
            EndOldest,
            QueryPower {
                observer: u8,
            },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..3, 0u64..100, 1u64..10).prop_map(|(device, start_ms, len_ms)| Op::Begin {
                    device,
                    start_ms,
                    len_ms
                }),
                Just(Op::EndOldest),
                (0u8..3).prop_map(|observer| Op::QueryPower { observer }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn random_op_sequences_stay_consistent(ops in proptest::collection::vec(op_strategy(), 1..80)) {
                let mut m = Medium::new(ChannelConfig::default(), 4242);
                for d in 0..3u32 {
                    m.add_device(DeviceId::new(d), Point::new(d as f64, 0.0));
                }
                let band = WifiChannel::new(11).unwrap().band();
                let mut live: Vec<TxId> = Vec::new();
                for op in ops {
                    match op {
                        Op::Begin { device, start_ms, len_ms } => {
                            let id = m.begin_transmission(
                                DeviceId::new(u32::from(device)),
                                Dbm::new(0.0),
                                band,
                                SimTime::from_millis(start_ms),
                                SimTime::from_millis(start_ms + len_ms),
                                Payload::Noise,
                            );
                            live.push(id);
                        }
                        Op::EndOldest => {
                            if !live.is_empty() {
                                let id = live.remove(0);
                                let tx = m.end_transmission(id);
                                prop_assert_eq!(tx.id, id);
                            }
                        }
                        Op::QueryPower { observer } => {
                            let obs = DeviceId::new(u32::from(observer));
                            for &id in &live {
                                let p1 = m.received_power(id, obs);
                                let p2 = m.received_power(id, obs);
                                prop_assert_eq!(p1, p2, "query must be idempotent");
                                let src = m.transmission(id).unwrap().source;
                                if src == obs {
                                    prop_assert_eq!(p1, Dbm::FLOOR);
                                } else {
                                    prop_assert!(p1.value().is_finite());
                                }
                            }
                        }
                    }
                    prop_assert_eq!(m.active_count(), live.len());
                }
            }

            #[test]
            fn sensed_power_monotone_in_transmissions(n in 1usize..6, seed in any::<u64>()) {
                let mut m = Medium::new(ChannelConfig::default(), seed);
                m.add_device(DeviceId::new(0), Point::new(0.0, 0.0));
                for d in 1..=n as u32 {
                    m.add_device(DeviceId::new(d), Point::new(1.0 + d as f64, 0.5));
                }
                let band = WifiChannel::new(11).unwrap().band();
                let now = SimTime::from_micros(500);
                let mut last = MilliWatt::ZERO;
                for d in 1..=n as u32 {
                    m.begin_transmission(
                        DeviceId::new(d),
                        Dbm::new(10.0),
                        band,
                        SimTime::ZERO,
                        SimTime::from_millis(1),
                        Payload::Noise,
                    );
                    let sensed = m.sensed_power(DeviceId::new(0), &band, now, None);
                    prop_assert!(sensed.value() >= last.value(),
                        "adding a transmission reduced sensed power");
                    last = sensed;
                }
            }
        }
    }

    #[test]
    fn moving_back_restores_the_exact_link_budget() {
        // set_position drops the memoized path loss but keeps the
        // shadowing realisation: moving a device away and back must
        // reproduce the original received power bit-for-bit.
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let home = m.position(DeviceId::new(1));
        let p_home = m.received_power(id, DeviceId::new(1));
        m.set_position(DeviceId::new(1), Point::new(9.0, 9.0));
        let p_away = m.received_power(id, DeviceId::new(1));
        assert_ne!(p_home, p_away, "path loss must follow the position");
        m.set_position(DeviceId::new(1), home);
        assert_eq!(
            m.received_power(id, DeviceId::new(1)),
            p_home,
            "same position + same shadowing + same fading must reproduce \
             the original budget exactly"
        );
    }

    #[test]
    fn re_registering_a_device_invalidates_its_link_cache() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let p1 = m.received_power(id, DeviceId::new(1));
        m.add_device(DeviceId::new(1), Point::new(12.0, 0.0));
        let p2 = m.received_power(id, DeviceId::new(1));
        assert!(p2 < p1, "moving away must reduce received power");
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let mut m = setup();
        assert_eq!(m.cache_stats(), MediumCacheStats::default());
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let cold = m.cache_stats();
        assert_eq!(cold.link_misses, 1);
        assert_eq!(cold.band_misses, 1);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let warm = m.cache_stats();
        assert_eq!(warm.link_hits, cold.link_hits + 1);
        assert_eq!(warm.band_hits, cold.band_hits + 1);
        assert_eq!(warm.link_misses, cold.link_misses);
        assert_eq!(warm.band_misses, cold.band_misses);
    }

    /// An aggressive culling config with ~29 m hearing radius at 0 dBm
    /// under the office model (budget 0 + 10 + 80 = 90 dB).
    fn aggressive() -> ChannelConfig {
        ChannelConfig {
            culling: CullingConfig {
                max_tx_power: Dbm::new(0.0),
                floor: Dbm::new(-80.0),
                margin_db: 10.0,
            },
            ..ChannelConfig::default()
        }
    }

    #[test]
    fn default_culling_is_conservative() {
        let m = Medium::new(ChannelConfig::default(), 1);
        // 30 dBm + 36 dB margin against a -120 dBm floor: tens of km.
        assert!(m.cell_size_m() > 10_000.0, "cell {} m", m.cell_size_m());
    }

    #[test]
    fn culled_links_couple_nothing_and_draw_no_rng() {
        let mut m = Medium::new(aggressive(), 3);
        let tx = DeviceId::new(0);
        let far = DeviceId::new(1);
        let near = DeviceId::new(2);
        m.add_device(tx, Point::ORIGIN);
        m.add_device(far, Point::new(200.0, 0.0)); // ~7 cells away
        m.add_device(near, Point::new(5.0, 0.0));
        let id = m.begin_transmission(
            tx,
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        assert_eq!(
            m.sensed_power(far, &wifi_band(), now, None),
            MilliWatt::ZERO
        );
        assert_eq!(m.received_power(id, far), Dbm::FLOOR);
        assert!(
            m.fading.iter().all(Vec::is_empty) && m.shadowing.is_empty(),
            "culled links must not consume the lazy RNG streams"
        );
        // A fresh medium on the same seed has drawn nothing either: the
        // fading stream must be at the same position.
        let mut twin = Medium::new(aggressive(), 3);
        assert_eq!(
            m.fading_draw(1.0).to_bits(),
            twin.fading_draw(1.0).to_bits(),
            "culled links must not advance the fading stream"
        );
        let stats = m.grid_stats();
        assert!(stats.tx_culled > 0, "far observer must cull at grid level");
        // The near observer hears the transmission normally, and its draw
        // is stored with the transmission.
        assert!(m.sensed_power(near, &wifi_band(), now, None).value() > 0.0);
        assert_eq!(m.fading[0].len(), 1);
        assert_eq!(m.fading[0][0].0, near);
    }

    #[test]
    fn adjacent_cell_but_out_of_range_is_rejected_by_radius() {
        let mut m = Medium::new(aggressive(), 4);
        let cell = m.cell_size_m();
        assert!((25.0..35.0).contains(&cell), "cell {cell} m");
        m.add_device(DeviceId::new(0), Point::ORIGIN);
        // Inside the neighbouring cell, but beyond the ~29 m radius.
        m.add_device(DeviceId::new(1), Point::new(cell * 1.5, 0.0));
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let sensed = m.sensed_power(
            DeviceId::new(1),
            &wifi_band(),
            SimTime::from_micros(500),
            None,
        );
        assert_eq!(sensed, MilliWatt::ZERO);
        let stats = m.grid_stats();
        assert_eq!(stats.tx_out_of_range, 1);
        assert_eq!(stats.tx_visited, 1);
    }

    #[test]
    fn loud_transmission_is_heard_beyond_one_cell() {
        let mut m = Medium::new(aggressive(), 5);
        m.add_device(DeviceId::new(0), Point::ORIGIN);
        // 20 dBm exceeds the configured 0 dBm max: radius ~135 m > cell.
        m.add_device(DeviceId::new(1), Point::new(100.0, 0.0));
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let sensed = m.sensed_power(
            DeviceId::new(1),
            &wifi_band(),
            SimTime::from_micros(500),
            None,
        );
        assert!(
            sensed.value() > 0.0,
            "over-budget transmitter must ride the loud overflow list"
        );
    }

    #[test]
    fn moving_a_source_rebuckets_its_live_transmissions() {
        let mut m = Medium::new(aggressive(), 6);
        let src = DeviceId::new(0);
        let obs = DeviceId::new(1);
        m.add_device(src, Point::ORIGIN);
        m.add_device(obs, Point::new(5.0, 0.0));
        let id = m.begin_transmission(
            src,
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        let here = m.sensed_power(obs, &wifi_band(), now, None);
        assert!(here.value() > 0.0);
        // Far away (several cells): the live transmission must follow.
        m.set_position(src, Point::new(300.0, 300.0));
        assert_eq!(
            m.sensed_power(obs, &wifi_band(), now, None),
            MilliWatt::ZERO
        );
        // And back: same position + persisted shadowing + cached fading
        // reproduce the original reading bit-for-bit.
        m.set_position(src, Point::ORIGIN);
        let back = m.sensed_power(obs, &wifi_band(), now, None);
        assert_eq!(back.value().to_bits(), here.value().to_bits());
        let _ = id;
    }

    #[test]
    fn grid_stats_count_queries_and_cells() {
        let mut m = setup();
        assert_eq!(m.grid_stats(), MediumGridStats::default());
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let s = m.grid_stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.tx_visited, 1);
        assert_eq!(s.tx_culled, 0);
        assert_eq!(s.cells_visited, 1, "one occupied cell under huge cells");
    }

    #[test]
    fn overlapping_into_matches_overlapping_and_reuses_the_buffer() {
        let mut m = setup();
        for s in 0..4u64 {
            m.begin_transmission(
                DeviceId::new(0),
                Dbm::new(20.0),
                wifi_band(),
                SimTime::from_millis(s),
                SimTime::from_millis(s + 2),
                wifi_data(),
            );
        }
        let mut buf = Vec::new();
        m.overlapping_into(
            DeviceId::new(2),
            &wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
            &mut buf,
        );
        assert_eq!(
            buf,
            m.overlapping(
                DeviceId::new(2),
                &wifi_band(),
                SimTime::ZERO,
                SimTime::from_millis(10),
            )
        );
        let cap = buf.capacity();
        m.overlapping_into(
            DeviceId::new(2),
            &wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
            &mut buf,
        );
        assert_eq!(buf.capacity(), cap, "repeat queries must reuse the buffer");
    }

    #[test]
    fn fading_cache_cleared_on_end() {
        let mut m = setup();
        let band = wifi_band();
        let mk = |m: &mut Medium, s| {
            m.begin_transmission(
                DeviceId::new(0),
                Dbm::new(20.0),
                band,
                SimTime::from_millis(s),
                SimTime::from_millis(s + 1),
                Payload::Noise,
            )
        };
        let a = mk(&mut m, 0);
        let _pa = m.received_power(a, DeviceId::new(1));
        m.end_transmission(a);
        assert!(
            m.fading.is_empty(),
            "fading draws outlive their transmission"
        );
        assert_eq!(m.fading_free.len(), 1, "the ended list must be recycled");
        assert!(m.fading_free[0].is_empty(), "recycled list must be cleared");
        // The next transmission reuses the list and inherits no draws.
        let b = mk(&mut m, 2);
        assert!(m.fading_free.is_empty(), "begin must pop the free list");
        assert!(m.fading[0].is_empty(), "new transmission inherited draws");
        let _pb = m.received_power(b, DeviceId::new(1));
        assert_eq!(m.fading[0].len(), 1);
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn ending_a_transmission_keeps_the_survivors_draws() {
        let band = wifi_band();
        let observers = [DeviceId::new(1), DeviceId::new(2)];
        let begin_three = |m: &mut Medium| -> Vec<TxId> {
            (0..3u64)
                .map(|s| {
                    m.begin_transmission(
                        DeviceId::new(0),
                        Dbm::new(20.0),
                        band,
                        SimTime::from_millis(s),
                        SimTime::from_millis(s + 5),
                        Payload::Noise,
                    )
                })
                .collect()
        };
        let query = |m: &mut Medium, ids: &[TxId]| -> Vec<u64> {
            let mut bits = Vec::new();
            for &id in ids {
                for obs in observers {
                    bits.push(m.received_power(id, obs).value().to_bits());
                }
            }
            bits
        };
        let mut m = setup();
        let ids = begin_three(&mut m);
        let first = query(&mut m, &ids);
        let mut twin = setup();
        let twin_ids = begin_three(&mut twin);
        assert_eq!(query(&mut twin, &twin_ids), first);

        // Ending the first transmission moves the tail into its slot.
        m.end_transmission(ids[0]);
        assert_eq!(m.slab_index(ids[2]), Some(0));
        assert_eq!(m.slab_index(ids[1]), Some(1));
        assert_eq!(
            query(&mut m, &ids[1..]),
            first[2..],
            "surviving transmissions must keep their fading draws"
        );
        // No draw was repeated (the stream would be ahead of the twin's)
        // or skipped (it would be behind).
        assert_eq!(
            m.fading_draw(1.0).to_bits(),
            twin.fading_draw(1.0).to_bits(),
            "teardown shifted the fading stream"
        );
    }
}
