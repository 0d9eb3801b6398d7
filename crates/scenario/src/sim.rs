//! The event-driven coexistence runtime.
//!
//! [`CoexistenceSim`] wires every substrate together into the paper's
//! office scenario: a saturated (or paced) Wi-Fi link E→F, one or more
//! ZigBee pairs Z→R at Fig. 6 locations, the shared medium with path
//! loss / shadowing / fading, ambient noise bursts, the CSI stream at F,
//! and one of four coordination modes (BiCord, ECC, unprotected CSMA, or
//! the Table I/II signaling-trial harness).
//!
//! All protocol logic lives in the sans-IO state machines of
//! `bicord-mac`, `bicord-core` and `bicord-ctc`; this module owns the event
//! queue and routes timers, carrier-sense transitions, transmissions,
//! receptions and CSI samples between them.
//!
//! Each device role has one code path. Wi-Fi stations live in one list:
//! station 0 is the sender E, and station 1 is the optional contender
//! ([`crate::config::SimConfig::extra_wifi`]) that must honour E's
//! CTS-to-self. ZigBee pairs live in another list: node 0 is the primary
//! pair, and further nodes come from
//! [`crate::config::SimConfig::extra_nodes`] (Sec. VI's "multiple ZigBee
//! nodes with different traffic pattern"). All devices carrier-sense one
//! another. The [`Mode`] picks one driver per side when the sim is built:
//! the Wi-Fi side gets a coordinator, an ECC scheduler or a trial
//! detector, and each ZigBee node gets a BiCord client, an ECC client or
//! a plain CSMA queue. The single Wi-Fi-side allocator must serve the
//! union of all nodes' requests.

use std::collections::VecDeque;

use rand::rngs::StdRng;

use bicord_core::client::{BicordClient, ClientAction, ClientConfig, ClientTimer};
use bicord_core::coordinator::{
    BicordCoordinator, CoordinatorAction, CoordinatorConfig, CoordinatorTimer,
};
use bicord_core::signaling::CsiDetector;
use bicord_ctc::ecc::{EccClientAction, EccWifiScheduler, EccZigbeeClient};
use bicord_mac::frames::{DeviceId, Payload, WifiFrameKind, WifiPriority, ZigbeeFrameKind};
use bicord_mac::medium::{ChannelConfig, Medium, Transmission, TxId};
use bicord_mac::wifi::{WifiAction, WifiFrameSpec, WifiMac, WifiTimer};
use bicord_mac::zigbee::{ZigbeeAction, ZigbeeMac, ZigbeeReceiver, ZigbeeTimer};
use bicord_metrics::delay::DelayTracker;
use bicord_metrics::precision_recall::PrecisionRecall;
use bicord_metrics::throughput::ThroughputTracker;
use bicord_metrics::utilization::{Occupant, UtilizationTracker};
use bicord_phy::csi::{CsiModel, Disturbance};
use bicord_phy::interferers::{
    generate_trace_into, RssiTrace, TraceConfig, TraceScratch, TRACE_DURATION,
};
use bicord_phy::noise::{NoiseBurst, WIFI_NOISE_FLOOR, ZIGBEE_NOISE_FLOOR};
use bicord_phy::reception::PrrModel;
use bicord_phy::spectrum::{Band, WifiChannel, ZigbeeChannel};
use bicord_phy::units::{Dbm, MilliWatt};
use bicord_sim::event::{EventHandle, FastMap};
use bicord_sim::guard::{GuardViolation, NoopGuard, SimGuard};
use bicord_sim::obs::{EventSink, NoopSink, TraceEvent};
use bicord_sim::{stream_rng, Engine, FaultInjector, SeedDomain, SimDuration, SimTime};
use bicord_workloads::priority::TrafficClass;
use bicord_workloads::traffic::{ArrivalProcess, BurstSpec, BurstTrafficGenerator};

use crate::config::{
    AllocationResults, ConfigError, DetectionResults, Mode, NodeResults, RunResults, SimConfig,
    WifiResults, ZigbeeResults,
};
use crate::geometry;
use crate::geometry::Location;
use crate::trace::{ChannelTrace, SpanKind};

/// Device E: the Wi-Fi sender.
pub const WIFI_TX: DeviceId = DeviceId::new(0);
/// Device F: the Wi-Fi receiver (runs the CSI extractor).
pub const WIFI_RX: DeviceId = DeviceId::new(1);
/// The primary ZigBee sender (node 0).
pub const ZIGBEE_TX: DeviceId = DeviceId::new(2);
/// The primary ZigBee receiver (node 0).
pub const ZIGBEE_RX: DeviceId = DeviceId::new(3);
/// The active Bluetooth interferer, when configured.
pub const BLUETOOTH_DEV: DeviceId = DeviceId::new(1_000);
/// The second contending Wi-Fi station, when configured.
pub const EXTRA_WIFI_TX: DeviceId = DeviceId::new(500);

/// Gap below which consecutive ZigBee frames count as one activity span
/// (covers the CSMA backoff, turnaround, IFS and packet interval between
/// the exchanges of one burst).
const ZB_SPAN_MERGE_GAP: SimDuration = SimDuration::from_millis(8);

fn zb_tx_device(node: usize) -> DeviceId {
    DeviceId::new(2 + 2 * node as u32)
}

fn zb_rx_device(node: usize) -> DeviceId {
    DeviceId::new(3 + 2 * node as u32)
}

/// Maps a ZigBee device id back to `(node index, is_sender)`.
fn zb_node_of(device: DeviceId) -> Option<(usize, bool)> {
    let raw = device.raw();
    if raw < 2 {
        return None;
    }
    Some((((raw - 2) / 2) as usize, raw.is_multiple_of(2)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TimerKey {
    Wifi(u8, WifiTimer),
    Zb(u8, ZigbeeTimer),
    ZbRx(u8, ZigbeeTimer),
    Coord(CoordinatorTimer),
    Client(u8, ClientTimer),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Timer(TimerKey),
    TxEnd(TxId),
    ZigbeeBurst { node: u8, n: u32, bytes: usize },
    WifiEnqueue,
    EccReserve,
    TrialStart,
    TrialEnd,
    ChannelClearCheck,
    MobilityStep(usize),
    PriorityBoundary(usize),
    BluetoothSlot,
    FaultChurnStep,
}

impl Event {
    /// Stable label used for [`TraceEvent::Dequeue`] records.
    fn kind_label(&self) -> &'static str {
        match self {
            Event::Timer(_) => "timer",
            Event::TxEnd(_) => "tx_end",
            Event::ZigbeeBurst { .. } => "zigbee_burst",
            Event::WifiEnqueue => "wifi_enqueue",
            Event::EccReserve => "ecc_reserve",
            Event::TrialStart => "trial_start",
            Event::TrialEnd => "trial_end",
            Event::ChannelClearCheck => "channel_clear_check",
            Event::MobilityStep(_) => "mobility_step",
            Event::PriorityBoundary(_) => "priority_boundary",
            Event::BluetoothSlot => "bluetooth_slot",
            Event::FaultChurnStep => "fault_churn_step",
        }
    }
}

/// Reception bookkeeping for one in-flight frame.
#[derive(Debug, Clone, Copy)]
struct RxWatch {
    tx: TxId,
    observer: DeviceId,
    listening: Band,
    /// Linear sum of interfering in-band power accumulated so far.
    interference: MilliWatt,
    /// Strongest single ZigBee in-band power seen (CSI disturbance).
    max_zigbee: Option<MilliWatt>,
    /// Source of that strongest contributor and whether it was a control
    /// frame (fault injection needs the attribution).
    max_zigbee_src: Option<(DeviceId, bool)>,
}

/// One Wi-Fi station. Station 0 is device E: it hosts the coordinator,
/// sends the CTS-to-self and alone feeds the Wi-Fi delay metrics.
/// Station 1, when configured, is the saturated contender.
struct Station {
    mac: WifiMac,
    device: DeviceId,
    tx_power: Dbm,
    sensed_busy: bool,
}

/// The Wi-Fi side's coordination driver, fixed by [`Mode`].
enum WifiDriver {
    Bicord(BicordCoordinator),
    Ecc(EccWifiScheduler),
    Unprotected,
    Trial(Trial),
}

/// The Table I/II harness: a CSI detector scored against trial bursts.
struct Trial {
    detector: CsiDetector,
    control_packets: u32,
    active: bool,
    detected_this_trial: bool,
    index: u32,
}

/// A ZigBee node's coordination driver, fixed by [`Mode`]. Trial nodes
/// have none: the harness sends their control bursts directly.
// Every node holds one driver for the whole run and it is never moved
// after setup; boxing the client would only add a pointer chase per call.
#[allow(clippy::large_enum_variant)]
enum ZbDriver {
    Bicord(BicordClient),
    Ecc(EccZigbeeClient),
    Unprotected(UnprotectedDriver),
    Trial,
}

#[derive(Default)]
struct UnprotectedDriver {
    pending: VecDeque<(u32, usize)>,
    in_flight: bool,
}

/// One ZigBee sender/receiver pair with its protocol stack.
struct ZbNode {
    mac: ZigbeeMac,
    rx: ZigbeeReceiver,
    driver: ZbDriver,
    tx_dev: DeviceId,
    rx_dev: DeviceId,
    /// Current transmit power for control packets.
    signal_power: Dbm,
    data_power: Dbm,
    burst: BurstSpec,
    seq: u32,
    arrivals: FastMap<u32, SimTime>,
    generated: u64,
    delivered: u64,
    delay: DelayTracker,
}

impl ZbNode {
    fn client(&self) -> Option<&BicordClient> {
        match &self.driver {
            ZbDriver::Bicord(client) => Some(client),
            _ => None,
        }
    }
}

/// The full coexistence simulation.
///
/// It holds every Wi-Fi station in one list and one coordination driver
/// per side, both fixed at construction (see the [module docs](self)).
/// Station 0 (device E) is special in three ways: it hosts the
/// coordinator, only it sends the CTS-to-self, and only its frames count
/// toward [`RunResults::wifi`].
///
/// Construct with [`CoexistenceSim::new`] (validated, uninstrumented) or
/// [`CoexistenceSim::with_sink`] (validated, instrumented) and execute
/// with [`CoexistenceSim::run`]; the run is fully determined by the
/// [`SimConfig::seed`].
///
/// The sink type parameter defaults to [`NoopSink`], whose calls compile
/// away — an uninstrumented run pays nothing for the observability
/// layer. Pass `&mut sink` to keep ownership of a real sink across the
/// consuming [`CoexistenceSim::run`]:
///
/// ```no_run
/// use bicord_scenario::config::SimConfig;
/// use bicord_scenario::sim::CoexistenceSim;
/// use bicord_sim::obs::VecSink;
///
/// let config = SimConfig::builder().build().unwrap();
/// let mut sink = VecSink::new();
/// let results = CoexistenceSim::with_sink(config, &mut sink).unwrap().run();
/// assert_eq!(results.wifi.reservations, sink.of_kind("reservation").len() as u64);
/// ```
///
/// The guard type parameter likewise defaults to the zero-sized
/// [`NoopGuard`]; pass a [`bicord_sim::RuntimeGuard`] via
/// [`CoexistenceSim::with_guard`] and execute with
/// [`CoexistenceSim::try_run`] to catch stalls, liveness and
/// conservation violations as structured errors instead of hangs.
pub struct CoexistenceSim<S: EventSink = NoopSink, G: SimGuard = NoopGuard> {
    sink: S,
    guard: G,
    config: SimConfig,
    engine: Engine<Event>,
    medium: Medium,
    stations: Vec<Station>,
    nodes: Vec<ZbNode>,
    wifi_driver: WifiDriver,

    wifi_band: Band,
    zigbee_band: Band,

    /// Never iterated, so the seeded hash leaks no order.
    timers: FastMap<TimerKey, EventHandle>,
    noise: Vec<NoiseBurst>,
    max_noise_duration: SimDuration,
    csi_model: CsiModel,
    csi_rng: StdRng,
    reception_rng: StdRng,
    trace_rng: StdRng,
    bluetooth_rng: StdRng,
    /// Fault injector; `None` when the profile is fully inactive, so the
    /// default path never even branches on fault state.
    fault: Option<FaultInjector>,

    watches: Vec<RxWatch>,

    /// Reused across frames so the steady state allocates nothing.
    tx_scratch: Vec<Transmission>,
    /// One action stack per action type (DESIGN.md ADR 0004). A `with_*`
    /// call records the height, lets the handler append, applies the
    /// appended actions in order and truncates back; re-entrant calls
    /// push above and truncate back first, keeping depth-first order.
    wifi_actions: Vec<WifiAction>,
    zb_actions: Vec<ZigbeeAction>,
    client_actions: Vec<ClientAction>,
    coord_actions: Vec<CoordinatorAction>,
    /// The RSSI trace a BiCord client asks for, refilled in place.
    rssi_trace: RssiTrace,
    trace_scratch: TraceScratch,

    util: UtilizationTracker,
    delay: DelayTracker,
    throughput: ThroughputTracker,
    pr: PrecisionRecall,
    high_truth: VecDeque<(SimTime, bool)>,
    ws_history: Vec<SimDuration>,
    /// Current merged ZigBee activity span (start, end). The paper counts
    /// "the transmission time of both Wi-Fi and ZigBee devices": for a
    /// ZigBee burst that is the whole exchange footprint (data + ACK +
    /// turnarounds + CSMA + packet intervals), so consecutive frames
    /// separated by less than [`ZB_SPAN_MERGE_GAP`] merge into one span.
    zb_span: Option<(SimTime, SimTime)>,
    wifi_enqueue_times: VecDeque<SimTime>,
    wifi_low_delays: Vec<f64>,
    wifi_frames_received: u64,
    trace: Option<ChannelTrace>,
    end_at: SimTime,
}

impl CoexistenceSim {
    /// Builds the scenario described by `config` without instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for inconsistent configurations (see
    /// [`SimConfig::validate`]).
    pub fn new(config: SimConfig) -> Result<Self, ConfigError> {
        CoexistenceSim::with_sink(config, NoopSink)
    }
}

impl<S: EventSink> CoexistenceSim<S> {
    /// Builds the scenario described by `config` with an [`EventSink`]
    /// receiving the run's structured observability records.
    ///
    /// Pass `&mut sink` (any `&mut impl EventSink` is itself a sink) to
    /// retain ownership of the sink after the consuming
    /// [`CoexistenceSim::run`] — required for sinks with an explicit
    /// finish step such as [`bicord_sim::obs::JsonlSink`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for inconsistent configurations (see
    /// [`SimConfig::validate`]).
    pub fn with_sink(config: SimConfig, sink: S) -> Result<Self, ConfigError> {
        CoexistenceSim::with_guard(config, sink, NoopGuard)
    }
}

impl<S: EventSink, G: SimGuard> CoexistenceSim<S, G> {
    /// Builds the scenario with both an [`EventSink`] and a
    /// [`SimGuard`] watching runtime invariants (see
    /// [`bicord_sim::guard`]).
    ///
    /// Pass `&mut guard` to read [`bicord_sim::RuntimeGuard::summary`]
    /// after the consuming [`CoexistenceSim::run`] /
    /// [`CoexistenceSim::try_run`]. The guard draws no randomness, so a
    /// guarded run produces bit-identical results to an unguarded one.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for inconsistent configurations (see
    /// [`SimConfig::validate`]).
    pub fn with_guard(config: SimConfig, sink: S, guard: G) -> Result<Self, ConfigError> {
        config.validate()?;
        let seed = config.seed;
        let mut medium = Medium::new(ChannelConfig::default(), seed);
        medium.add_device(WIFI_TX, geometry::wifi_sender_position());
        medium.add_device(WIFI_RX, geometry::wifi_receiver_position());

        let mut engine = Engine::new();
        let end_at = SimTime::ZERO + config.duration;

        // Ambient noise bursts for the whole run.
        let mut noise_rng = stream_rng(seed, SeedDomain::Noise, 0);
        let noise = config
            .noise
            .bursts_in(&mut noise_rng, SimTime::ZERO, end_at);
        let max_noise_duration = noise
            .iter()
            .map(|b| b.duration)
            .fold(SimDuration::ZERO, SimDuration::max);

        // Mode-agnostic components.
        let csi_model = CsiModel::intel5300();
        let wifi_driver = match &config.mode {
            Mode::Bicord => WifiDriver::Bicord(BicordCoordinator::new(
                CoordinatorConfig {
                    detector: config.detector,
                    allocator: config.allocator,
                    respond_to_requests: true,
                },
                csi_model,
            )),
            Mode::Ecc(ecc_config) => {
                WifiDriver::Ecc(EccWifiScheduler::new(*ecc_config, SimTime::ZERO))
            }
            Mode::Unprotected => WifiDriver::Unprotected,
            Mode::SignalingTrial {
                control_packets, ..
            } => WifiDriver::Trial(Trial {
                detector: CsiDetector::new(config.detector, csi_model),
                control_packets: *control_packets,
                active: false,
                detected_this_trial: false,
                index: 0,
            }),
        };

        // Build the node roster: the primary node plus any extra nodes.
        struct NodeSpec {
            location: Location,
            burst: BurstSpec,
            arrivals: ArrivalProcess,
            data_power: Dbm,
            signal_power: Dbm,
        }
        let mut specs = vec![NodeSpec {
            location: config.location,
            burst: config.zigbee.burst,
            arrivals: config.zigbee.arrivals,
            data_power: config.zigbee.data_power,
            signal_power: config.effective_signal_power(),
        }];
        for extra in &config.extra_nodes {
            specs.push(NodeSpec {
                location: extra.location,
                burst: extra.burst,
                arrivals: extra.arrivals,
                data_power: extra.data_power,
                signal_power: extra
                    .signal_power
                    .unwrap_or_else(|| extra.location.paper_signal_power()),
            });
        }

        let mut nodes = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let tx_dev = zb_tx_device(i);
            let rx_dev = zb_rx_device(i);
            medium.add_device(tx_dev, spec.location.sender_position());
            medium.add_device(rx_dev, spec.location.receiver_position());

            let driver = match &config.mode {
                Mode::Bicord => ZbDriver::Bicord(BicordClient::new(ClientConfig {
                    default_signal_power: spec.signal_power,
                    data_power: spec.data_power,
                    ..config.client.clone()
                })),
                Mode::Ecc(ecc_config) => ZbDriver::Ecc(EccZigbeeClient::new(*ecc_config)),
                Mode::Unprotected => ZbDriver::Unprotected(UnprotectedDriver::default()),
                Mode::SignalingTrial { .. } => ZbDriver::Trial,
            };

            nodes.push(ZbNode {
                mac: ZigbeeMac::with_defaults(seed, i as u64),
                rx: ZigbeeReceiver::new(),
                driver,
                tx_dev,
                rx_dev,
                signal_power: spec.signal_power,
                data_power: spec.data_power,
                burst: spec.burst,
                seq: 0,
                arrivals: FastMap::default(),
                generated: 0,
                delivered: 0,
                delay: DelayTracker::new(),
            });
        }

        // Workload events.
        match &config.mode {
            Mode::SignalingTrial {
                trial_period,
                trials,
                ..
            } => {
                for i in 0..*trials {
                    let start =
                        SimTime::ZERO + *trial_period * u64::from(i) + SimDuration::from_millis(5);
                    engine.schedule_at(start, Event::TrialStart);
                    engine.schedule_at(
                        start + *trial_period - SimDuration::from_micros(200),
                        Event::TrialEnd,
                    );
                }
            }
            _ => {
                for (i, spec) in specs.iter().enumerate() {
                    let mut traffic_rng = stream_rng(seed, SeedDomain::Traffic, i as u64);
                    let mut generator = BurstTrafficGenerator::new(spec.burst, spec.arrivals);
                    for at in generator.arrivals_until(&mut traffic_rng, end_at) {
                        engine.schedule_at(
                            at,
                            Event::ZigbeeBurst {
                                node: i as u8,
                                n: spec.burst.n_packets,
                                bytes: spec.burst.mpdu_bytes,
                            },
                        );
                    }
                }
            }
        }
        if let Mode::Ecc(ecc_config) = &config.mode {
            engine.schedule_at(SimTime::ZERO + ecc_config.period, Event::EccReserve);
        }
        if let Some(interval) = config.wifi.enqueue_interval {
            engine.schedule_at(SimTime::ZERO + interval, Event::WifiEnqueue);
        }
        if let Some(mobility) = &config.device_mobility {
            for (i, (at, _)) in mobility.samples().enumerate() {
                if at > SimTime::ZERO && at < end_at {
                    engine.schedule_at(at, Event::MobilityStep(i));
                }
            }
        }
        if let Some(priority) = &config.priority {
            for (i, at) in priority.boundaries().into_iter().enumerate() {
                if at < end_at {
                    engine.schedule_at(at.max(SimTime::ZERO), Event::PriorityBoundary(i));
                }
            }
        }
        if let Some(bt) = &config.bluetooth {
            medium.add_device(BLUETOOTH_DEV, bt.position);
            engine.schedule_at(
                SimTime::ZERO + SimDuration::from_micros(625),
                Event::BluetoothSlot,
            );
        }
        let fault = if config.fault.is_active() {
            Some(FaultInjector::from_master_seed(config.fault, seed))
        } else {
            None
        };
        if let Some(period) = config.fault.churn_period {
            engine.schedule_at(SimTime::ZERO + period, Event::FaultChurnStep);
        }
        // Station i's MAC draws from Wi-Fi stream i. A paced E stays
        // unsaturated; the contender always saturates.
        let primary_load = config
            .wifi
            .enqueue_interval
            .is_none()
            .then_some(config.wifi.mpdu_bytes);
        let mut specs = vec![(WIFI_TX, config.wifi.tx_power, primary_load)];
        if let Some(extra) = config.extra_wifi {
            medium.add_device(EXTRA_WIFI_TX, extra.position);
            specs.push((EXTRA_WIFI_TX, extra.tx_power, Some(extra.mpdu_bytes)));
        }
        let stations = specs
            .into_iter()
            .enumerate()
            .map(|(i, (device, tx_power, load))| {
                let mut mac = WifiMac::new(config.wifi.rate, seed, i as u64);
                mac.set_saturated(load.map(|bytes| (bytes, WifiPriority::Low)));
                Station {
                    mac,
                    device,
                    tx_power,
                    sensed_busy: false,
                }
            })
            .collect();

        Ok(CoexistenceSim {
            sink,
            guard,
            engine,
            medium,
            stations,
            nodes,
            wifi_driver,
            wifi_band: WifiChannel::new(config.wifi_channel)
                .expect("validate() checked the Wi-Fi channel")
                .band(),
            zigbee_band: ZigbeeChannel::new(config.zigbee_channel)
                .expect("validate() checked the ZigBee channel")
                .band(),
            timers: FastMap::default(),
            noise,
            max_noise_duration,
            csi_model,
            csi_rng: stream_rng(seed, SeedDomain::Csi, 0),
            reception_rng: stream_rng(seed, SeedDomain::Reception, 0),
            trace_rng: stream_rng(seed, SeedDomain::Interferers, 0),
            bluetooth_rng: stream_rng(seed, SeedDomain::Interferers, 1),
            fault,
            watches: Vec::new(),
            tx_scratch: Vec::new(),
            wifi_actions: Vec::new(),
            zb_actions: Vec::new(),
            client_actions: Vec::new(),
            coord_actions: Vec::new(),
            rssi_trace: RssiTrace::default(),
            trace_scratch: TraceScratch::default(),
            util: UtilizationTracker::new(SimTime::ZERO),
            delay: DelayTracker::new(),
            throughput: ThroughputTracker::new(SimTime::ZERO),
            pr: PrecisionRecall::new(),
            high_truth: VecDeque::new(),
            ws_history: Vec::new(),
            zb_span: None,
            wifi_enqueue_times: VecDeque::new(),
            wifi_low_delays: Vec::new(),
            wifi_frames_received: 0,
            trace: if config.record_trace {
                Some(ChannelTrace::new())
            } else {
                None
            },
            end_at,
            config,
        })
    }

    /// Runs the scenario to completion and returns the measured results.
    ///
    /// # Panics
    ///
    /// Panics if an enabled guard detects a fatal violation (a stall).
    /// With the default [`NoopGuard`] this cannot happen; callers that
    /// want the violation as a value use [`CoexistenceSim::try_run`].
    pub fn run(self) -> RunResults {
        self.try_run()
            .unwrap_or_else(|v| panic!("simulation aborted by runtime guard: {v}"))
    }

    /// Runs the scenario to completion, aborting with a structured
    /// [`GuardViolation`] if an enabled guard detects a stall.
    ///
    /// Non-fatal violations (overdue bursts, conservation mismatches)
    /// are reported through the sink as `guard_*` trace records and the
    /// run continues; only a stall — which would otherwise loop forever
    /// — aborts. The `guard_stall` record is emitted before returning,
    /// so sinks see the abort cause too.
    ///
    /// # Errors
    ///
    /// Returns [`GuardViolation::StallDetected`] when the guard's
    /// same-instant dequeue budget is exhausted.
    pub fn try_run(mut self) -> Result<RunResults, GuardViolation> {
        // Kick the Wi-Fi stations.
        for station in 0..self.stations.len() {
            self.with_wifi_mac(SimTime::ZERO, station, |mac, out| {
                mac.on_channel_idle(SimTime::ZERO, out)
            });
        }

        let end = self.end_at;
        while let Some((now, event)) = self.engine.next_event_before(end) {
            self.handle(now, event);
            if self.guard.enabled() {
                if let Some(v) = self.guard.check_stall(now, self.engine.same_time_streak()) {
                    if let GuardViolation::StallDetected { t_us, dequeues } = v {
                        self.sink.emit(&TraceEvent::GuardStall { t_us, dequeues });
                    }
                    return Err(v);
                }
                if let Some(GuardViolation::BurstOverdue {
                    t_us,
                    node,
                    started_us,
                }) = self.guard.check_liveness(now)
                {
                    self.sink.emit(&TraceEvent::GuardLiveness {
                        t_us,
                        node,
                        started_us,
                    });
                }
            }
        }
        Ok(self.finalize())
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, event: Event) {
        self.sink.emit(&TraceEvent::Dequeue {
            t_us: now.as_micros(),
            kind: event.kind_label(),
        });
        match event {
            Event::Timer(key) => {
                self.timers.remove(&key);
                self.on_timer(now, key);
            }
            Event::TxEnd(tx) => self.on_tx_end(now, tx),
            Event::ZigbeeBurst { node, n, bytes } => {
                self.on_zigbee_burst(now, node as usize, n, bytes)
            }
            Event::WifiEnqueue => self.on_wifi_enqueue(now),
            Event::EccReserve => self.on_ecc_reserve(now),
            Event::TrialStart => self.on_trial_start(now),
            Event::TrialEnd => self.on_trial_end(now),
            Event::ChannelClearCheck => self.on_channel_clear_check(now),
            Event::MobilityStep(i) => self.on_mobility_step(now, i),
            Event::PriorityBoundary(i) => self.on_priority_boundary(now, i),
            Event::BluetoothSlot => self.on_bluetooth_slot(now),
            Event::FaultChurnStep => self.on_fault_churn_step(now),
        }
    }

    fn on_timer(&mut self, now: SimTime, key: TimerKey) {
        match key {
            TimerKey::Wifi(station, t) => {
                self.with_wifi_mac(now, station as usize, |mac, out| mac.on_timer(now, t, out));
            }
            TimerKey::Zb(node, ZigbeeTimer::Cca) => {
                // CCA verdict: total in-band energy at this ZigBee sender.
                let node = node as usize;
                let busy = self.zigbee_channel_busy(now, node);
                self.with_zb_mac(now, node, |mac, out| mac.on_cca_result(now, busy, out));
            }
            TimerKey::Zb(node, t) => {
                self.with_zb_mac(now, node as usize, |mac, out| mac.on_timer(now, t, out));
            }
            TimerKey::ZbRx(node, t) => {
                self.with_zb_rx(now, node as usize, |rx, out| rx.on_timer(now, t, out));
            }
            TimerKey::Coord(t) => {
                self.with_coordinator(now, |c, sink, out| c.on_timer(now, t, sink, out));
            }
            TimerKey::Client(node, t) => {
                let node = node as usize;
                match self.nodes[node].driver {
                    ZbDriver::Bicord(_) => {
                        self.with_client(now, node, |c, out| c.on_timer(now, t, out))
                    }
                    ZbDriver::Ecc(_) if t == ClientTimer::NextPacket => {
                        self.ecc_try_send(now, node)
                    }
                    ZbDriver::Unprotected(_) if t == ClientTimer::NextPacket => {
                        self.unprotected_send_next(now, node)
                    }
                    _ => {}
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmissions
    // ------------------------------------------------------------------

    fn begin_tx(
        &mut self,
        source: DeviceId,
        power: Dbm,
        band: Band,
        now: SimTime,
        airtime: SimDuration,
        payload: Payload,
    ) -> TxId {
        let tx = self
            .medium
            .begin_transmission(source, power, band, now, now + airtime, payload);
        self.guard.on_tx_begin();
        self.engine.schedule_at(now + airtime, Event::TxEnd(tx));

        // Contribute to existing reception watches. `RxWatch` is `Copy`,
        // so an index loop avoids materializing a spec list per frame.
        for i in 0..self.watches.len() {
            let w = self.watches[i];
            if w.tx == tx || w.observer == source || self.medium.transmission(w.tx).is_none() {
                continue;
            }
            let p = self
                .medium
                .received_power_in_band(tx, w.observer, &w.listening);
            let watch = &mut self.watches[i];
            watch.interference += p;
            if payload.is_zigbee() && p.value() > 0.0 {
                let keep = matches!(watch.max_zigbee, Some(prev) if prev.value() >= p.value());
                if !keep {
                    watch.max_zigbee = Some(p);
                    watch.max_zigbee_src = Some((
                        source,
                        matches!(payload, Payload::Zigbee(ZigbeeFrameKind::Control { .. })),
                    ));
                }
            }
        }

        // Open a watch for frames that need a reception (or CSI) decision.
        let watch_wanted = match payload {
            Payload::Wifi(WifiFrameKind::Data { .. }) => Some((WIFI_RX, self.wifi_band)),
            Payload::Zigbee(ZigbeeFrameKind::Data { .. }) => {
                zb_node_of(source).map(|(node, _)| (self.nodes[node].rx_dev, self.zigbee_band))
            }
            Payload::Zigbee(ZigbeeFrameKind::Ack { .. }) => {
                zb_node_of(source).map(|(node, _)| (self.nodes[node].tx_dev, self.zigbee_band))
            }
            _ => None,
        };
        if let Some((observer, listening)) = watch_wanted {
            // Snapshot into the reusable scratch (Transmission is Copy)
            // so the queries can borrow the medium mutably, then sort by
            // id: the slab iterates in arbitrary order, and both the lazy
            // fading draws and the f64 sum below must evaluate in
            // ascending-TxId order to stay bit-identical run to run.
            let others = &mut self.tx_scratch;
            others.clear();
            others.extend(
                self.medium
                    .active_transmissions()
                    .filter(|t| t.id != tx && t.source != observer)
                    .copied(),
            );
            others.sort_unstable_by_key(|t| t.id);
            let mut interference = MilliWatt::ZERO;
            let mut max_zigbee: Option<MilliWatt> = None;
            let mut max_zigbee_src: Option<(DeviceId, bool)> = None;
            for t in &self.tx_scratch {
                let p = self
                    .medium
                    .received_power_in_band(t.id, observer, &listening);
                interference += p;
                if t.payload.is_zigbee() && p.value() > 0.0 {
                    let keep = matches!(max_zigbee, Some(prev) if prev.value() >= p.value());
                    if !keep {
                        max_zigbee = Some(p);
                        max_zigbee_src = Some((
                            t.source,
                            matches!(t.payload, Payload::Zigbee(ZigbeeFrameKind::Control { .. })),
                        ));
                    }
                }
            }
            self.watches.push(RxWatch {
                tx,
                observer,
                listening,
                interference,
                max_zigbee,
                max_zigbee_src,
            });
        }

        self.update_wifi_carriers(now);
        if source == WIFI_TX {
            // Every ZigBee node hears the Wi-Fi device resume: any white
            // space it believed in is over.
            for node in 0..self.nodes.len() {
                self.with_client(now, node, |c, out| c.on_channel_busy(now, out));
            }
        }
        tx
    }

    fn take_watch(&mut self, tx: TxId) -> Option<RxWatch> {
        let idx = self.watches.iter().position(|w| w.tx == tx)?;
        Some(self.watches.swap_remove(idx))
    }

    fn on_tx_end(&mut self, now: SimTime, tx_id: TxId) {
        if self.guard.enabled() {
            // Checked at entry: every path below ends exactly this one
            // transmission, so the slab should still hold everything the
            // guard counted as begun-but-not-ended.
            let active = self.medium.active_count() as u64;
            if let Some(GuardViolation::ConservationBroken {
                t_us,
                invariant,
                expected,
                actual,
            }) = self.guard.check_tx_end(now, active)
            {
                self.sink.emit(&TraceEvent::GuardConservation {
                    t_us,
                    invariant,
                    expected,
                    actual,
                });
            }
        }
        let tx = *self
            .medium
            .transmission(tx_id)
            .expect("TxEnd for unknown transmission");
        let airtime = tx.end - tx.start;
        let watch = self.take_watch(tx_id);

        if let Some(trace) = self.trace.as_mut() {
            let kind = match tx.payload {
                Payload::Wifi(WifiFrameKind::Data { .. }) => Some(SpanKind::WifiData),
                Payload::Wifi(WifiFrameKind::Cts { nav }) => {
                    trace.record(tx.end, tx.end + nav, SpanKind::WhiteSpace);
                    Some(SpanKind::WifiCts)
                }
                Payload::Zigbee(k) => zb_node_of(tx.source).map(|(node, _)| match k {
                    ZigbeeFrameKind::Control { .. } => SpanKind::ZigbeeControl { node },
                    _ => SpanKind::ZigbeeData { node },
                }),
                Payload::Noise => None,
            };
            if let Some(kind) = kind {
                trace.record(tx.start, tx.end, kind);
            }
        }

        match tx.payload {
            Payload::Wifi(kind) => {
                let sender = self
                    .stations
                    .iter()
                    .position(|s| s.device == tx.source)
                    .expect("Wi-Fi frames come from stations");
                match kind {
                    WifiFrameKind::Data { mpdu_bytes, .. } => {
                        self.util.add(Occupant::WifiData, airtime);
                        self.handle_wifi_frame_received(now, &tx, mpdu_bytes, watch);
                    }
                    WifiFrameKind::Cts { nav } => {
                        self.util.add(Occupant::WifiCts, airtime);
                        self.sink.emit(&TraceEvent::WhiteSpace {
                            t_us: tx.end.as_micros(),
                            nav_us: nav.as_micros(),
                        });
                        // Surrounding Wi-Fi stations decode the CTS and set
                        // their NAV — the mechanism that actually protects
                        // the white space. A lost CTS leaves contenders
                        // unaware of the reservation: the "protected" white
                        // space still sees Wi-Fi contention.
                        let cts_lost = self.fault.as_mut().map(|f| f.drop_cts()).unwrap_or(false);
                        if cts_lost {
                            self.sink.emit(&TraceEvent::FaultCtsLost {
                                t_us: now.as_micros(),
                                nav_us: nav.as_micros(),
                            });
                        } else {
                            for station in (0..self.stations.len()).filter(|&s| s != sender) {
                                self.with_wifi_mac(now, station, |mac, out| {
                                    mac.set_nav(now, now + nav, out)
                                });
                            }
                        }
                        self.on_white_space_begin(now, nav);
                    }
                }
                self.medium.end_transmission(tx_id);
                self.with_wifi_mac(now, sender, |mac, out| {
                    mac.on_tx_end(now, out);
                });
            }
            Payload::Zigbee(kind) => {
                let (node, is_sender) =
                    zb_node_of(tx.source).expect("zigbee frame from unknown device");
                if is_sender {
                    match kind {
                        ZigbeeFrameKind::Data { mpdu_bytes, seq } => {
                            self.note_zigbee_activity(tx.start, tx.end);
                            let ok = self.decide_reception(
                                &tx,
                                watch,
                                &PrrModel::zigbee(),
                                mpdu_bytes,
                                ZIGBEE_NOISE_FLOOR,
                            );
                            if ok {
                                self.with_zb_rx(now, node, |rx, out| {
                                    rx.on_data_received(now, seq, out)
                                });
                            }
                        }
                        ZigbeeFrameKind::Control { .. } => {
                            self.util.add(Occupant::ZigbeeControl, airtime);
                        }
                        ZigbeeFrameKind::Ack { .. } => {
                            unreachable!("ZigBee senders do not emit ACKs")
                        }
                    }
                    self.medium.end_transmission(tx_id);
                    self.with_zb_mac(now, node, |mac, out| {
                        mac.on_tx_end(now, out);
                    });
                } else {
                    // A ZigBee receiver's ACK.
                    self.note_zigbee_activity(tx.start, tx.end);
                    let seq = match kind {
                        ZigbeeFrameKind::Ack { seq } => seq,
                        other => unreachable!("unexpected receiver frame {other:?}"),
                    };
                    let ok = self.decide_reception(
                        &tx,
                        watch,
                        &PrrModel::zigbee(),
                        bicord_mac::zigbee::ACK_MPDU_BYTES,
                        ZIGBEE_NOISE_FLOOR,
                    );
                    self.medium.end_transmission(tx_id);
                    if ok {
                        self.with_zb_mac(now, node, |mac, out| mac.on_ack_received(now, seq, out));
                    }
                }
            }
            Payload::Noise => {
                // A Bluetooth slot (or other non-decodable interferer):
                // occupies the medium, carries nothing.
                self.medium.end_transmission(tx_id);
            }
        }
        self.update_wifi_carriers(now);
    }

    /// Merges a ZigBee frame into the running activity span (the paper's
    /// "transmission time" of a device covers the whole burst footprint).
    fn note_zigbee_activity(&mut self, start: SimTime, end: SimTime) {
        match self.zb_span {
            Some((s, e)) if start.saturating_since(e) <= ZB_SPAN_MERGE_GAP => {
                self.zb_span = Some((s, e.max(end)));
            }
            Some((s, e)) => {
                self.util.add(Occupant::ZigbeeData, e - s);
                self.zb_span = Some((start, end));
            }
            None => self.zb_span = Some((start, end)),
        }
    }

    /// SINR-based reception decision for a finished frame.
    fn decide_reception(
        &mut self,
        tx: &Transmission,
        watch: Option<RxWatch>,
        model: &PrrModel,
        len_bytes: usize,
        floor: Dbm,
    ) -> bool {
        let watch = watch.expect("reception decision requires a watch");
        let signal = self.medium.received_power(tx.id, watch.observer);
        let noise_burst = self.noise_power_during(tx.start, tx.end);
        let denominator = watch.interference + noise_burst + floor.to_milliwatt();
        let sinr = signal.db_above(denominator.to_dbm());
        model.receive(&mut self.reception_rng, sinr, len_bytes)
    }

    /// CSI generation + detector feeding for one received Wi-Fi frame.
    fn handle_wifi_frame_received(
        &mut self,
        now: SimTime,
        tx: &Transmission,
        mpdu_bytes: usize,
        watch: Option<RxWatch>,
    ) {
        let watch = watch.expect("wifi data frames always carry a watch");
        // Frame reception at F (the paper's 1-6 % PRR effect under
        // signaling shows up here).
        let signal = self.medium.received_power(tx.id, WIFI_RX);
        let noise_burst = self.noise_power_during(tx.start, tx.end);
        let denominator = watch.interference + noise_burst + WIFI_NOISE_FLOOR.to_milliwatt();
        let sinr = signal.db_above(denominator.to_dbm());
        let received = PrrModel::wifi().receive(&mut self.reception_rng, sinr, mpdu_bytes);
        if !received {
            return; // no CSI reading without a decoded frame
        }
        // F decodes the contender's frames too (they still yield CSI), but
        // only E's count toward `frames_received`, matching `frames_sent`.
        if tx.source == WIFI_TX {
            self.wifi_frames_received += 1;
        }

        // The CSI extractor needs a consumer.
        if !matches!(
            self.wifi_driver,
            WifiDriver::Bicord(_) | WifiDriver::Trial(_)
        ) {
            return;
        }

        // Control-packet loss: the strongest ZigBee contributor was a
        // control frame, but its CSI signature is suppressed, so the
        // classifier misses the continuity sample it should have produced.
        let mut max_zigbee = watch.max_zigbee;
        if max_zigbee.is_some() {
            let is_control = watch.max_zigbee_src.is_some_and(|(_, ctrl)| ctrl);
            if is_control {
                let lost = self
                    .fault
                    .as_mut()
                    .map(|f| f.drop_control())
                    .unwrap_or(false);
                if lost {
                    let node = watch
                        .max_zigbee_src
                        .and_then(|(dev, _)| zb_node_of(dev))
                        .map(|(node, _)| node as u32)
                        .unwrap_or(0);
                    self.sink.emit(&TraceEvent::FaultControlLost {
                        t_us: now.as_micros(),
                        node,
                    });
                    max_zigbee = None;
                }
            }
        }

        let (mut disturbance, mut zigbee_truth) = if let Some(max_z) = max_zigbee {
            let sir = max_z.to_dbm().db_above(signal);
            (Disturbance::Zigbee { sir_db: sir }, true)
        } else if let Some(noise_dbm) = self.strongest_noise_during(tx.start, tx.end) {
            let sir = noise_dbm.db_above(signal);
            (Disturbance::NoiseBurst { sir_db: sir }, false)
        } else {
            let severity = self
                .config
                .person
                .as_ref()
                .map(|p| p.severity_at(now))
                .unwrap_or(0.0);
            if severity > 0.0 {
                (Disturbance::Human { severity }, false)
            } else {
                (Disturbance::None, false)
            }
        };

        // CSI false positive: a quiet sample is classified as ZigBee-like
        // anyway (a phantom channel request; `zigbee_truth` stays false so
        // detection metrics count it against precision).
        if matches!(disturbance, Disturbance::None) {
            let phantom = self
                .fault
                .as_mut()
                .map(|f| f.phantom_csi())
                .unwrap_or(false);
            if phantom {
                self.sink.emit(&TraceEvent::FaultPhantomCsi {
                    t_us: now.as_micros(),
                });
                disturbance = Disturbance::Zigbee { sir_db: 0.0 };
                zigbee_truth = false;
            }
        }

        let sample = self.csi_model.sample(&mut self.csi_rng, now, disturbance);
        if sample.deviation >= self.csi_model.classify_threshold() {
            self.high_truth.push_back((now, zigbee_truth));
            while let Some(&(t, _)) = self.high_truth.front() {
                if now.saturating_since(t) > SimDuration::from_millis(20) {
                    self.high_truth.pop_front();
                } else {
                    break;
                }
            }
        }

        match self.wifi_driver {
            WifiDriver::Bicord(_) => {
                self.with_coordinator(now, |c, sink, out| c.on_csi_sample(sample, sink, out));
            }
            WifiDriver::Trial(ref mut trial) => {
                if let Some(detection) = trial.detector.push_obs(sample, &mut self.sink) {
                    let zigbee_caused = self
                        .high_truth
                        .iter()
                        .any(|&(t, z)| z && t >= detection.window_start && t <= detection.at);
                    if zigbee_caused {
                        if trial.active {
                            trial.detected_this_trial = true;
                        }
                    } else {
                        self.pr.false_positive();
                    }
                }
            }
            WifiDriver::Ecc(_) | WifiDriver::Unprotected => {}
        }
    }

    // ------------------------------------------------------------------
    // Carrier sense
    // ------------------------------------------------------------------

    /// Recomputes every station's carrier sense, in index order, and
    /// notifies its MAC on transitions. Each station hears the other
    /// stations, ZigBee (the CCA side-effect of signaling) and Bluetooth.
    fn update_wifi_carriers(&mut self, now: SimTime) {
        for station in 0..self.stations.len() {
            let device = self.stations[station].device;
            let sensed = self.medium.sensed_power(device, &self.wifi_band, now, None);
            let busy = sensed.to_dbm() >= self.config.wifi.ed_threshold;
            let sensed_busy = &mut self.stations[station].sensed_busy;
            if busy == *sensed_busy {
                continue;
            }
            *sensed_busy = busy;
            self.with_wifi_mac(now, station, |mac, out| {
                if busy {
                    mac.on_channel_busy(now, out)
                } else {
                    mac.on_channel_idle(now, out)
                }
            });
        }
    }

    /// A ZigBee sender's wideband CCA verdict (it senses Wi-Fi, noise, and
    /// the *other* ZigBee nodes).
    fn zigbee_channel_busy(&mut self, now: SimTime, node: usize) -> bool {
        let device = self.nodes[node].tx_dev;
        let sensed = self
            .medium
            .sensed_power(device, &self.zigbee_band, now, None)
            + self.noise_power_during(now, now + SimDuration::from_micros(1));
        sensed.to_dbm() >= self.config.zigbee.busy_threshold
    }

    // ------------------------------------------------------------------
    // Noise helpers
    // ------------------------------------------------------------------

    fn noise_power_during(&self, from: SimTime, to: SimTime) -> MilliWatt {
        self.noise_bursts_overlapping(from, to)
            .map(|b| b.power.to_milliwatt())
            .sum()
    }

    fn strongest_noise_during(&self, from: SimTime, to: SimTime) -> Option<Dbm> {
        self.noise_bursts_overlapping(from, to)
            .map(|b| b.power)
            .fold(None, |acc, p| match acc {
                Some(prev) if prev >= p => Some(prev),
                _ => Some(p),
            })
    }

    fn noise_bursts_overlapping(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &NoiseBurst> {
        // Bursts are sorted by start; only those with
        // start in [from - max_duration, to) can overlap.
        let lo = from.saturating_since(SimTime::ZERO + self.max_noise_duration);
        let lo_time = SimTime::ZERO + lo;
        let begin = self.noise.partition_point(|b| b.start < lo_time);
        self.noise[begin..]
            .iter()
            .take_while(move |b| b.start < to)
            .filter(move |b| b.overlaps(from, to))
    }

    // ------------------------------------------------------------------
    // Workload events
    // ------------------------------------------------------------------

    fn on_zigbee_burst(&mut self, now: SimTime, node: usize, n: u32, bytes: usize) {
        let state = &mut self.nodes[node];
        let seqs = state.seq..state.seq + n;
        state.generated += u64::from(n);
        state.seq += n;
        for seq in seqs.clone() {
            state.arrivals.insert(seq, now);
        }
        match &mut state.driver {
            ZbDriver::Bicord(_) => {
                // Only client-driven bursts report BurstComplete, so only
                // those arm the liveness watch.
                self.guard.on_burst_start(now, node as u32);
                self.with_client(now, node, |c, out| c.on_burst(now, n, bytes, out));
            }
            ZbDriver::Ecc(ecc) => ecc.on_burst(now, n, bytes),
            ZbDriver::Unprotected(driver) => {
                driver.pending.extend(seqs.map(|seq| (seq, bytes)));
                self.unprotected_send_next(now, node);
            }
            ZbDriver::Trial => {}
        }
    }

    fn on_wifi_enqueue(&mut self, now: SimTime) {
        let interval = self
            .config
            .wifi
            .enqueue_interval
            .expect("WifiEnqueue without interval");
        let priority = self
            .config
            .priority
            .as_ref()
            .map(|p| match p.class_at(now) {
                TrafficClass::HighPriority => WifiPriority::High,
                TrafficClass::LowPriority => WifiPriority::Low,
            })
            .unwrap_or(WifiPriority::Low);
        self.wifi_enqueue_times.push_back(now);
        let spec = WifiFrameSpec {
            mpdu_bytes: self.config.wifi.mpdu_bytes,
            priority,
            enqueued_at: now,
        };
        self.with_wifi_mac(now, 0, |mac, out| mac.enqueue(now, spec, out));
        if now + interval < self.end_at {
            self.engine.schedule_at(now + interval, Event::WifiEnqueue);
        }
    }

    fn on_ecc_reserve(&mut self, now: SimTime) {
        let WifiDriver::Ecc(sched) = &mut self.wifi_driver else {
            return;
        };
        let (_, ws) = sched.next_reservation();
        let period = sched.config().period;
        // Sec. VIII-G: while serving high-priority traffic the Wi-Fi
        // device does not make space for ZigBee — ECC skips the blind
        // reservation just as BiCord ignores requests.
        let high_priority = self
            .config
            .priority
            .as_ref()
            .map(|p| p.class_at(now) == TrafficClass::HighPriority)
            .unwrap_or(false);
        if !high_priority {
            self.sink.emit(&TraceEvent::Reservation {
                t_us: now.as_micros(),
                ws_us: ws.as_micros(),
            });
            self.with_wifi_mac(now, 0, |mac, out| mac.reserve_channel(now, ws, out));
            self.ws_history.push(ws);
        }
        if now + period < self.end_at {
            self.engine.schedule_at(now + period, Event::EccReserve);
        }
    }

    fn on_trial_start(&mut self, now: SimTime) {
        let WifiDriver::Trial(trial) = &mut self.wifi_driver else {
            return;
        };
        trial.active = true;
        trial.detected_this_trial = false;
        trial.index += 1;
        trial.detector.reset_window();
        let bytes = self.config.client.policy.control_bytes;
        for _ in 0..trial.control_packets {
            self.with_zb_mac(now, 0, |mac, out| mac.send_control(now, bytes, out));
        }
    }

    fn on_trial_end(&mut self, now: SimTime) {
        let WifiDriver::Trial(trial) = &mut self.wifi_driver else {
            return;
        };
        if !trial.active {
            return;
        }
        if trial.detected_this_trial {
            self.pr.true_positive();
        } else {
            self.pr.false_negative();
        }
        self.sink.emit(&TraceEvent::TrialResolved {
            t_us: now.as_micros(),
            index: trial.index,
            detected: trial.detected_this_trial,
        });
        trial.active = false;
    }

    fn on_channel_clear_check(&mut self, now: SimTime) {
        for node in 0..self.nodes.len() {
            match self.nodes[node].driver {
                // Each BiCord node physically senses the quiet channel.
                ZbDriver::Bicord(_) => {
                    if !self.zigbee_channel_busy(now, node) {
                        self.with_client(now, node, |c, out| c.on_channel_clear(now, out));
                    }
                }
                ZbDriver::Ecc(_) => self.ecc_try_send(now, node),
                ZbDriver::Unprotected(_) | ZbDriver::Trial => {}
            }
        }
    }

    fn on_white_space_begin(&mut self, now: SimTime, nav: SimDuration) {
        match &self.wifi_driver {
            WifiDriver::Bicord(_) => {}
            WifiDriver::Ecc(sched) => {
                let loss = sched.config().notification_loss;
                for node in 0..self.nodes.len() {
                    // The one-way CTC announcement can be lost; that node
                    // never learns about this white space.
                    if loss > 0.0 && bicord_sim::dist::bernoulli(&mut self.reception_rng, loss) {
                        continue;
                    }
                    if let ZbDriver::Ecc(ecc) = &mut self.nodes[node].driver {
                        let _ = ecc.on_white_space(now, nav);
                    }
                }
            }
            WifiDriver::Unprotected | WifiDriver::Trial(_) => return,
        }
        // Give the ZigBee nodes a short sensing delay to notice the quiet
        // channel.
        self.engine.schedule_at(
            now + SimDuration::from_micros(400),
            Event::ChannelClearCheck,
        );
    }

    fn on_mobility_step(&mut self, now: SimTime, index: usize) {
        let Some(mobility) = self.config.device_mobility.as_ref() else {
            return;
        };
        let position = mobility.position_at(SimTime::ZERO + mobility.step() * index as u64);
        self.medium.set_position(ZIGBEE_TX, position);
        let dropped = self.medium.invalidate_shadowing(ZIGBEE_TX);
        self.sink.emit(&TraceEvent::MediumCacheInvalidated {
            t_us: now.as_micros(),
            device: ZIGBEE_TX.raw(),
            dropped: dropped as u32,
        });
    }

    fn on_priority_boundary(&mut self, now: SimTime, _index: usize) {
        let Some(schedule) = self.config.priority.as_ref() else {
            return;
        };
        let class = schedule.class_at(now);
        if let WifiDriver::Bicord(coordinator) = &mut self.wifi_driver {
            coordinator.set_respond(class == TrafficClass::LowPriority);
        }
        // In ECC mode, high-priority segments suppress reservations inside
        // on_ecc_reserve (checked there via the schedule).
    }

    fn on_fault_churn_step(&mut self, now: SimTime) {
        let Some(injector) = self.fault.as_mut() else {
            return;
        };
        // Device churn: perturb the primary ZigBee sender's position,
        // invalidating cached link budgets exactly like a mobility step.
        let (dx, dy) = injector.churn_offset();
        let position = self.medium.position(ZIGBEE_TX).offset(dx, dy);
        self.medium.set_position(ZIGBEE_TX, position);
        let dropped = self.medium.invalidate_shadowing(ZIGBEE_TX);
        self.sink.emit(&TraceEvent::FaultChurn {
            t_us: now.as_micros(),
            device: ZIGBEE_TX.raw(),
            dropped: dropped as u32,
        });
        let period = self
            .config
            .fault
            .churn_period
            .expect("churn step implies a churn period");
        let next = now + period;
        if next < self.end_at {
            self.engine.schedule_at(next, Event::FaultChurnStep);
        }
    }

    fn on_bluetooth_slot(&mut self, now: SimTime) {
        let Some(bt) = self.config.bluetooth else {
            return;
        };
        // One 625 us BR/EDR slot: with probability `in_band_prob` the hop
        // lands inside the ZigBee listening band and occupies 366 us of it.
        if bicord_sim::dist::bernoulli(&mut self.bluetooth_rng, bt.in_band_prob) {
            let band = Band::centered(self.zigbee_band.center_mhz(), 1.0);
            self.begin_tx(
                BLUETOOTH_DEV,
                bt.tx_power,
                band,
                now,
                SimDuration::from_micros(366),
                Payload::Noise,
            );
        }
        let next = now + SimDuration::from_micros(625);
        if next < self.end_at {
            self.engine.schedule_at(next, Event::BluetoothSlot);
        }
    }

    // ------------------------------------------------------------------
    // ECC / unprotected drivers
    // ------------------------------------------------------------------

    fn ecc_try_send(&mut self, now: SimTime, node: usize) {
        let ZbDriver::Ecc(ecc) = &mut self.nodes[node].driver else {
            return;
        };
        if let EccClientAction::SendData { seq, bytes } = ecc.next_action(now) {
            ecc.mark_in_flight(seq);
            self.with_zb_mac(now, node, |mac, out| mac.send_data(now, seq, bytes, out));
        }
    }

    fn unprotected_send_next(&mut self, now: SimTime, node: usize) {
        let ZbDriver::Unprotected(driver) = &mut self.nodes[node].driver else {
            return;
        };
        if driver.in_flight {
            return;
        }
        let Some(&(seq, bytes)) = driver.pending.front() else {
            return;
        };
        driver.in_flight = true;
        self.with_zb_mac(now, node, |mac, out| mac.send_data(now, seq, bytes, out));
    }

    // ------------------------------------------------------------------
    // Action application
    // ------------------------------------------------------------------

    fn set_timer(&mut self, key: TimerKey, at: SimTime) {
        if let Some(handle) = self.timers.remove(&key) {
            self.engine.cancel(handle);
        }
        let handle = self.engine.schedule_at(at, Event::Timer(key));
        self.timers.insert(key, handle);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        if let Some(handle) = self.timers.remove(&key) {
            self.engine.cancel(handle);
        }
    }

    /// Runs one of `station`'s MAC handlers on the Wi-Fi action stack and
    /// applies what it appended.
    fn with_wifi_mac(
        &mut self,
        now: SimTime,
        station: usize,
        f: impl FnOnce(&mut WifiMac, &mut Vec<WifiAction>),
    ) {
        let start = self.wifi_actions.len();
        f(&mut self.stations[station].mac, &mut self.wifi_actions);
        let end = self.wifi_actions.len();
        for i in start..end {
            match self.wifi_actions[i] {
                WifiAction::StartTx { kind, airtime } => {
                    // Only E's paced frames carry enqueue times.
                    if let (0, WifiFrameKind::Data { priority, .. }) = (station, kind) {
                        if self.config.wifi.enqueue_interval.is_some() {
                            if let Some(enqueued) = self.wifi_enqueue_times.pop_front() {
                                if priority == WifiPriority::Low {
                                    self.wifi_low_delays
                                        .push(now.saturating_since(enqueued).as_millis_f64());
                                }
                            }
                        }
                    }
                    let Station {
                        device, tx_power, ..
                    } = self.stations[station];
                    self.begin_tx(
                        device,
                        tx_power,
                        self.wifi_band,
                        now,
                        airtime,
                        Payload::Wifi(kind),
                    );
                }
                WifiAction::SetTimer { timer, at } => {
                    self.set_timer(TimerKey::Wifi(station as u8, timer), at)
                }
                WifiAction::CancelTimer(timer) => {
                    self.cancel_timer(TimerKey::Wifi(station as u8, timer))
                }
            }
        }
        self.wifi_actions.truncate(start);
    }

    /// Runs one of `node`'s MAC handlers on the ZigBee action stack and
    /// applies what it appended.
    fn with_zb_mac(
        &mut self,
        now: SimTime,
        node: usize,
        f: impl FnOnce(&mut ZigbeeMac, &mut Vec<ZigbeeAction>),
    ) {
        let start = self.zb_actions.len();
        f(&mut self.nodes[node].mac, &mut self.zb_actions);
        let end = self.zb_actions.len();
        for i in start..end {
            match self.zb_actions[i] {
                ZigbeeAction::StartTx { kind, airtime } => {
                    let state = &self.nodes[node];
                    let power = match kind {
                        ZigbeeFrameKind::Control { .. } => state.signal_power,
                        _ => state.data_power,
                    };
                    let source = state.tx_dev;
                    self.begin_tx(
                        source,
                        power,
                        self.zigbee_band,
                        now,
                        airtime,
                        Payload::Zigbee(kind),
                    );
                }
                ZigbeeAction::SetTimer { timer, at } => {
                    self.set_timer(TimerKey::Zb(node as u8, timer), at)
                }
                ZigbeeAction::CancelTimer(timer) => {
                    self.cancel_timer(TimerKey::Zb(node as u8, timer))
                }
                ZigbeeAction::Notify(notification) => {
                    self.on_zb_notification(now, node, notification)
                }
            }
        }
        self.zb_actions.truncate(start);
    }

    /// Runs one of `node`'s receiver handlers on the ZigBee action stack
    /// and applies what it appended.
    fn with_zb_rx(
        &mut self,
        now: SimTime,
        node: usize,
        f: impl FnOnce(&mut ZigbeeReceiver, &mut Vec<ZigbeeAction>),
    ) {
        let start = self.zb_actions.len();
        f(&mut self.nodes[node].rx, &mut self.zb_actions);
        let end = self.zb_actions.len();
        for i in start..end {
            match self.zb_actions[i] {
                ZigbeeAction::StartTx { kind, airtime } => {
                    let source = self.nodes[node].rx_dev;
                    let power = self.nodes[node].data_power;
                    self.begin_tx(
                        source,
                        power,
                        self.zigbee_band,
                        now,
                        airtime,
                        Payload::Zigbee(kind),
                    );
                }
                ZigbeeAction::SetTimer { timer, at } => {
                    self.set_timer(TimerKey::ZbRx(node as u8, timer), at)
                }
                ZigbeeAction::CancelTimer(timer) => {
                    self.cancel_timer(TimerKey::ZbRx(node as u8, timer))
                }
                ZigbeeAction::Notify(_) => {}
            }
        }
        self.zb_actions.truncate(start);
    }

    fn record_delivery(&mut self, now: SimTime, node: usize, seq: u32) {
        self.sink.emit(&TraceEvent::PacketDelivered {
            t_us: now.as_micros(),
            node: node as u32,
            seq,
        });
        let bytes = self.nodes[node].burst.mpdu_bytes as u64;
        let state = &mut self.nodes[node];
        state.delivered += 1;
        if let Some(arrived) = state.arrivals.remove(&seq) {
            state.delay.record(arrived, now);
            self.delay.record(arrived, now);
        }
        self.throughput.add_bytes(bytes);
    }

    fn on_zb_notification(
        &mut self,
        now: SimTime,
        node: usize,
        notification: bicord_mac::zigbee::ZigbeeNotification,
    ) {
        use bicord_mac::zigbee::ZigbeeNotification as N;
        let next_packet_after = match self.nodes[node].driver {
            ZbDriver::Bicord(_) => {
                self.with_client(now, node, |c, out| {
                    c.on_mac_notification(now, notification, out)
                });
                return;
            }
            ZbDriver::Trial => return,
            _ if notification == N::ControlSent => return,
            ZbDriver::Ecc(ref mut ecc) => {
                match notification {
                    N::Delivered { seq, .. } => {
                        let _ = ecc.on_delivered(now, seq);
                    }
                    // The frame stays in the ECC client's queue; clearing
                    // the in-flight mark re-offers it at the next
                    // opportunity.
                    N::Failed { seq, .. } => ecc.on_failed(seq),
                    N::ControlSent => {}
                }
                ecc.config().packet_interval
            }
            ZbDriver::Unprotected(ref mut driver) => {
                driver.in_flight = false;
                driver.pending.pop_front();
                if let N::Failed { .. } = notification {
                    self.nodes[node].delay.record_abandoned();
                    self.delay.record_abandoned();
                }
                self.config.client.packet_interval
            }
        };
        if let N::Delivered { seq, .. } = notification {
            self.record_delivery(now, node, seq);
        }
        self.set_timer(
            TimerKey::Client(node as u8, ClientTimer::NextPacket),
            now + next_packet_after,
        );
    }

    /// Feeds `node`'s BiCord client through `f` on the client action stack
    /// and applies what it appended. Nodes without a client ignore the
    /// event.
    fn with_client(
        &mut self,
        now: SimTime,
        node: usize,
        f: impl FnOnce(&mut BicordClient, &mut Vec<ClientAction>),
    ) {
        if let ZbDriver::Bicord(client) = &mut self.nodes[node].driver {
            let start = self.client_actions.len();
            f(client, &mut self.client_actions);
            self.apply_client_actions(now, node, start);
        }
    }

    /// Applies the actions `node`'s client appended to the client action
    /// stack above `start`, then truncates back to `start`.
    fn apply_client_actions(&mut self, now: SimTime, node: usize, start: usize) {
        let end = self.client_actions.len();
        for i in start..end {
            match self.client_actions[i] {
                ClientAction::MacSendData { seq, bytes } => {
                    self.with_zb_mac(now, node, |mac, out| mac.send_data(now, seq, bytes, out));
                }
                ClientAction::MacSendControl { bytes } => {
                    self.sink.emit(&TraceEvent::ChannelRequest {
                        t_us: now.as_micros(),
                        node: node as u32,
                    });
                    self.with_zb_mac(now, node, |mac, out| mac.send_control(now, bytes, out));
                }
                ClientAction::SetTxPower(power) => {
                    self.nodes[node].signal_power = power;
                }
                ClientAction::CaptureTrace => {
                    // Synthesize the RSSI trace the ZigBee node records: the
                    // dominant interferer at its own link budget. Duty
                    // cycles matter: a saturated Wi-Fi sender at moderate
                    // power out-jams a sparse Bluetooth hopper at high
                    // power.
                    let node_pos = self.medium.position(self.nodes[node].tx_dev);
                    let loss = |p: bicord_phy::geometry::Point| {
                        bicord_phy::pathloss::PathLossModel::office()
                            .path_loss_db(node_pos.distance_to(p))
                    };
                    let wifi_rx =
                        self.config.wifi.tx_power.value() - loss(self.medium.position(WIFI_TX));
                    // Only band-overlapping Wi-Fi matters.
                    let wifi_couples = self.zigbee_band.overlap_fraction(&self.wifi_band) > 0.0;
                    let bt = self
                        .config
                        .bluetooth
                        .map(|bt| (bt.tx_power.value() - loss(bt.position), bt.in_band_prob));
                    // Effective level = received power weighted by duty (in
                    // dB: 10 log10 of the on-air fraction).
                    let wifi_eff = if wifi_couples {
                        wifi_rx - 10.0 * (1.0f64 / 0.9).log10()
                    } else {
                        f64::MIN
                    };
                    let trace_config = match bt {
                        Some((bt_rx, in_band))
                            if bt_rx - 10.0 * (1.0 / (in_band * 0.58)).log10() > wifi_eff =>
                        {
                            TraceConfig::bluetooth(bt_rx)
                        }
                        _ if wifi_couples => TraceConfig::wifi(wifi_rx),
                        _ => {
                            // Nothing dominant: a quiet-channel trace (the
                            // classifier reports no verdict).
                            TraceConfig::bluetooth(-95.0)
                        }
                    };
                    generate_trace_into(
                        &mut self.trace_rng,
                        &trace_config,
                        TRACE_DURATION,
                        &mut self.trace_scratch,
                        &mut self.rssi_trace,
                    );
                    // `with_client` inlined: its closure could not borrow
                    // the sim's trace while the sim is borrowed mutably.
                    if let ZbDriver::Bicord(client) = &mut self.nodes[node].driver {
                        let start = self.client_actions.len();
                        client.on_trace(now, &self.rssi_trace, &mut self.client_actions);
                        self.apply_client_actions(now, node, start);
                    }
                }
                ClientAction::SetTimer { timer, at } => {
                    self.set_timer(TimerKey::Client(node as u8, timer), at)
                }
                ClientAction::CancelTimer(timer) => {
                    self.cancel_timer(TimerKey::Client(node as u8, timer))
                }
                ClientAction::PacketDelivered { seq, .. } => {
                    self.record_delivery(now, node, seq);
                }
                ClientAction::BurstComplete { delivered, failed } => {
                    self.guard.on_burst_end(node as u32);
                    self.sink.emit(&TraceEvent::BurstComplete {
                        t_us: now.as_micros(),
                        node: node as u32,
                        delivered,
                        failed,
                    });
                }
                ClientAction::SignalingBackoff { failures } => {
                    self.sink.emit(&TraceEvent::SignalingBackoff {
                        t_us: now.as_micros(),
                        node: node as u32,
                        failures,
                    });
                }
                ClientAction::FallbackToCsma { failures } => {
                    self.sink.emit(&TraceEvent::CsmaFallback {
                        t_us: now.as_micros(),
                        node: node as u32,
                        failures,
                    });
                }
            }
        }
        self.client_actions.truncate(start);
    }

    /// Runs a coordinator handler on the coordinator action stack and
    /// applies what it appended. Without a coordinator this is a no-op.
    fn with_coordinator(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut BicordCoordinator, &mut S, &mut Vec<CoordinatorAction>),
    ) {
        let WifiDriver::Bicord(coordinator) = &mut self.wifi_driver else {
            return;
        };
        let start = self.coord_actions.len();
        f(coordinator, &mut self.sink, &mut self.coord_actions);
        let end = self.coord_actions.len();
        for i in start..end {
            match self.coord_actions[i] {
                CoordinatorAction::Reserve(ws) => {
                    self.ws_history.push(ws);
                    self.with_wifi_mac(now, 0, |mac, out| mac.reserve_channel(now, ws, out));
                }
                CoordinatorAction::SetTimer { timer, at } => {
                    self.set_timer(TimerKey::Coord(timer), at)
                }
                CoordinatorAction::CancelTimer(timer) => self.cancel_timer(TimerKey::Coord(timer)),
            }
        }
        self.coord_actions.truncate(start);
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn finalize(mut self) -> RunResults {
        let end = self.end_at;
        // Cache efficiency snapshot. Gated on mobility so the default
        // (static-geometry) traces — including the goldens — are
        // byte-identical to pre-cache builds.
        if self.config.device_mobility.is_some() {
            let stats = self.medium.cache_stats();
            self.sink.emit(&TraceEvent::MediumCacheStats {
                t_us: end.as_micros(),
                link_hits: stats.link_hits,
                link_misses: stats.link_misses,
                band_hits: stats.band_hits,
                band_misses: stats.band_misses,
            });
            let grid = self.medium.grid_stats();
            self.sink.emit(&TraceEvent::MediumGridStats {
                t_us: end.as_micros(),
                queries: grid.queries,
                cells: grid.cells_visited,
                visited: grid.tx_visited,
                culled: grid.tx_culled,
                out_of_range: grid.tx_out_of_range,
            });
        }
        if let Some((s, e)) = self.zb_span.take() {
            self.util.add(Occupant::ZigbeeData, e - s);
        }
        self.util.finish(end);
        if self.guard.enabled() {
            // Airtime conservation: the accrued busy time cannot exceed
            // the run window times the number of concurrent occupancy
            // sources (two Wi-Fi MACs + CTS protection, plus data and
            // control per ZigBee node). A violation means double
            // accounting, not congestion.
            let busy_us: u64 = [
                Occupant::WifiData,
                Occupant::WifiCts,
                Occupant::ZigbeeData,
                Occupant::ZigbeeControl,
            ]
            .iter()
            .map(|o| self.util.airtime(*o).as_micros())
            .sum();
            let window_us = end.as_micros();
            let sources = 3 + 2 * self.nodes.len() as u64;
            let capacity_us = window_us.saturating_mul(sources);
            if let Some(GuardViolation::ConservationBroken {
                t_us,
                invariant,
                expected,
                actual,
            }) = self.guard.check_airtime(window_us, busy_us, capacity_us)
            {
                self.sink.emit(&TraceEvent::GuardConservation {
                    t_us,
                    invariant,
                    expected,
                    actual,
                });
            }
        }
        self.throughput.finish(end);

        let (mean_delay, p95_delay, max_delay) = if self.delay.count() > 0 {
            let summary = self.delay.summary_ms();
            (
                Some(summary.mean()),
                Some(summary.percentile(95.0)),
                Some(summary.max()),
            )
        } else {
            (None, None, None)
        };

        let generated: u64 = self.nodes.iter().map(|n| n.generated).sum();
        let delivered: u64 = self.nodes.iter().map(|n| n.delivered).sum();
        let transmissions: u64 = self.nodes.iter().map(|n| n.mac.data_transmissions()).sum();
        let signaling_rounds: u64 = self
            .nodes
            .iter()
            .map(|n| n.client().map_or(0, |c| c.signaling_rounds()))
            .sum();
        let control_packets: u64 = self
            .nodes
            .iter()
            .map(|n| n.mac.control_transmissions())
            .sum();
        let csma_fallbacks: u64 = self
            .nodes
            .iter()
            .map(|n| n.client().map_or(0, |c| c.csma_fallbacks()))
            .sum();

        let zigbee = ZigbeeResults {
            generated,
            transmissions,
            delivered,
            undelivered: generated.saturating_sub(delivered),
            mean_delay_ms: mean_delay,
            p95_delay_ms: p95_delay,
            max_delay_ms: max_delay,
            throughput_kbps: self.throughput.kbps(),
            signaling_rounds,
            control_packets,
            csma_fallbacks,
        };

        let per_node: Vec<NodeResults> = self
            .nodes
            .iter()
            .map(|n| NodeResults {
                generated: n.generated,
                delivered: n.delivered,
                signaling_rounds: n.client().map_or(0, |c| c.signaling_rounds()),
                mean_delay_ms: if n.delay.count() > 0 {
                    Some(n.delay.mean_ms())
                } else {
                    None
                },
            })
            .collect();

        let wifi_mean_delay = if self.wifi_low_delays.is_empty() {
            None
        } else {
            Some(self.wifi_low_delays.iter().sum::<f64>() / self.wifi_low_delays.len() as f64)
        };
        let coordinator = match &self.wifi_driver {
            WifiDriver::Bicord(c) => Some(c),
            _ => None,
        };
        let primary = &self.stations[0].mac;
        let wifi = WifiResults {
            frames_sent: primary.frames_sent(),
            frames_received: self.wifi_frames_received,
            reservations: primary.cts_sent(),
            mean_delay_ms: wifi_mean_delay,
            ignored_requests: coordinator.map_or(0, |c| c.ignored_requests()),
        };

        let detection = DetectionResults {
            tp: self.pr.tp(),
            fp: self.pr.fp(),
            fn_count: self.pr.fn_count(),
            precision: self.pr.precision(),
            recall: self.pr.recall(),
        };

        let white_space_history_ms = self.ws_history.iter().map(|d| d.as_millis_f64()).collect();
        let allocation = match coordinator {
            Some(c) => AllocationResults {
                white_space_history_ms,
                learning_iterations: c.allocator().iterations_to_converge(),
                final_estimate_ms: c.allocator().estimate().as_millis_f64(),
                converged: c.allocator().phase()
                    == bicord_core::allocation::AllocationPhase::Converged,
                learning_aborts: c.allocator().learning_aborts(),
            },
            None => AllocationResults {
                white_space_history_ms,
                ..AllocationResults::default()
            },
        };

        RunResults {
            utilization: self.util.total_utilization(),
            zigbee_utilization: self.util.zigbee_utilization(),
            wifi_utilization: self.util.wifi_utilization(),
            overhead_fraction: self.util.overhead_fraction(),
            zigbee,
            per_node,
            wifi,
            detection,
            allocation,
            simulated: end - SimTime::ZERO,
            events: self.engine.events_processed(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExtraNodeConfig;
    use crate::geometry::Location;

    fn short(mut config: SimConfig) -> RunResults {
        config.duration = SimDuration::from_secs(3);
        CoexistenceSim::new(config).unwrap().run()
    }

    #[test]
    fn wifi_alone_saturates_the_channel() {
        // No ZigBee traffic at all: utilization ≈ 1 from Wi-Fi.
        let mut config = SimConfig::bicord(Location::A, 11);
        config.zigbee.arrivals =
            bicord_workloads::traffic::ArrivalProcess::Periodic(SimDuration::from_secs(1000));
        let r = short(config);
        assert!(
            r.wifi_utilization > 0.6,
            "wifi utilization {}",
            r.wifi_utilization
        );
        assert!(r.wifi.frames_sent > 1_000);
        assert!(r.zigbee.delivered == 0);
    }

    #[test]
    fn unprotected_zigbee_suffers_heavy_loss() {
        // Sec. VIII-A: over 95 % per-transmission loss when the nearby
        // Wi-Fi sender is active and no coordination exists. Location D is
        // the "near the Wi-Fi sender" regime; -7 dBm is the paper's demo
        // power.
        let mut config = SimConfig::unprotected(Location::D, 12);
        config.zigbee.data_power = bicord_phy::units::Dbm::new(-7.0);
        let r = short(config);
        assert!(r.zigbee.generated > 0);
        assert!(r.zigbee.transmissions > 0);
        let prr = r.zigbee_prr();
        assert!(prr < 0.2, "unprotected per-transmission PRR {prr} too high");
    }

    #[test]
    fn bicord_delivers_the_burst_traffic() {
        let r = short(SimConfig::bicord(Location::A, 13));
        assert!(r.zigbee.generated > 0);
        let pdr = r.zigbee_pdr();
        assert!(pdr > 0.6, "BiCord PDR {pdr} too low");
        assert!(r.zigbee.signaling_rounds > 0, "signaling never happened");
        assert!(r.wifi.reservations > 0, "no white spaces reserved");
        assert!(r.utilization > 0.5, "utilization {}", r.utilization);
        assert_eq!(r.per_node.len(), 1);
        assert_eq!(r.per_node[0].delivered, r.zigbee.delivered);
    }

    #[test]
    fn guarded_run_is_bit_identical_and_clean() {
        use bicord_sim::guard::{GuardConfig, RuntimeGuard};
        use bicord_sim::obs::VecSink;

        let mut config = SimConfig::bicord(Location::A, 13);
        config.duration = SimDuration::from_secs(3);
        let plain = CoexistenceSim::new(config.clone()).unwrap().run();

        let mut sink = VecSink::new();
        let mut guard = RuntimeGuard::new(GuardConfig::default());
        let guarded = CoexistenceSim::with_guard(config, &mut sink, &mut guard)
            .unwrap()
            .try_run()
            .expect("healthy run must not stall");

        // The guard observes without perturbing: results are identical
        // and a healthy run reports no violations.
        assert_eq!(format!("{plain:?}"), format!("{guarded:?}"));
        assert!(!guard.summary().any(), "summary: {}", guard.summary());
        assert!(sink.of_kind("guard_stall").is_empty());
        assert!(sink.of_kind("guard_liveness").is_empty());
        assert!(sink.of_kind("guard_conservation").is_empty());
    }

    #[test]
    fn guard_reports_a_seeded_conservation_mismatch() {
        use bicord_sim::guard::{GuardConfig, RuntimeGuard, SimGuard as _};
        use bicord_sim::obs::VecSink;

        let mut config = SimConfig::bicord(Location::A, 13);
        config.duration = SimDuration::from_secs(1);
        let mut sink = VecSink::new();
        let mut guard = RuntimeGuard::new(GuardConfig::default());
        // Pre-charge the begin counter: the first real TxEnd now sees
        // one more "active" transmission than the medium slab holds.
        guard.on_tx_begin();
        let _ = CoexistenceSim::with_guard(config, &mut sink, &mut guard)
            .unwrap()
            .try_run()
            .expect("conservation mismatches are non-fatal");
        assert!(guard.summary().conservation >= 1);
        let records = sink.of_kind("guard_conservation");
        assert!(!records.is_empty(), "mismatch must reach the sink");
    }

    #[test]
    fn bicord_beats_unprotected_delivery() {
        let b = short(SimConfig::bicord(Location::A, 14));
        let u = short(SimConfig::unprotected(Location::A, 14));
        assert!(b.zigbee_pdr() > u.zigbee_pdr() + 0.3);
    }

    #[test]
    fn ecc_reserves_periodically_and_delivers() {
        let r = short(SimConfig::ecc(
            Location::A,
            15,
            SimDuration::from_millis(30),
        ));
        // ~10 reservations per second.
        assert!(
            (20..=35).contains(&(r.wifi.reservations as usize)),
            "reservations {}",
            r.wifi.reservations
        );
        assert!(r.zigbee_pdr() > 0.5, "ECC PDR {}", r.zigbee_pdr());
    }

    #[test]
    fn bicord_delay_beats_ecc() {
        let mut bc = SimConfig::bicord(Location::A, 16);
        bc.zigbee.arrivals =
            bicord_workloads::traffic::ArrivalProcess::Poisson(SimDuration::from_millis(400));
        let mut ecc = SimConfig::ecc(Location::A, 16, SimDuration::from_millis(20));
        ecc.zigbee.arrivals =
            bicord_workloads::traffic::ArrivalProcess::Poisson(SimDuration::from_millis(400));
        let b = short(bc);
        let e = short(ecc);
        let (bd, ed) = (
            b.zigbee.mean_delay_ms.expect("bicord delivered"),
            e.zigbee.mean_delay_ms.expect("ecc delivered"),
        );
        assert!(bd < ed, "BiCord delay {bd} ms !< ECC delay {ed} ms");
    }

    #[test]
    fn signaling_trial_produces_detection_stats() {
        let config = SimConfig::signaling_trial(Location::A, 17, 4, 60, Dbm::new(0.0));
        let r = CoexistenceSim::new(config).unwrap().run();
        let total = r.detection.tp + r.detection.fn_count;
        assert_eq!(total, 60, "every trial must resolve");
        assert!(
            r.detection.recall > 0.5,
            "recall {} at the best location",
            r.detection.recall
        );
        assert!(r.detection.precision > 0.5);
    }

    #[test]
    fn weak_location_detects_worse_than_strong() {
        let strong = CoexistenceSim::new(SimConfig::signaling_trial(
            Location::A,
            18,
            4,
            60,
            Dbm::new(0.0),
        ))
        .unwrap()
        .run();
        let weak = CoexistenceSim::new(SimConfig::signaling_trial(
            Location::B,
            18,
            4,
            60,
            Dbm::new(-3.0),
        ))
        .unwrap()
        .run();
        assert!(
            strong.detection.recall >= weak.detection.recall,
            "A recall {} < B@-3 recall {}",
            strong.detection.recall,
            weak.detection.recall
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut c = SimConfig::bicord(Location::A, seed);
            c.duration = SimDuration::from_secs(2);
            CoexistenceSim::new(c).unwrap().run()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a.zigbee.delivered, b.zigbee.delivered);
        assert_eq!(a.wifi.frames_sent, b.wifi.frames_sent);
        assert_eq!(a.events, b.events);
        let c = run(100);
        assert!(a.events != c.events || a.zigbee.delivered != c.zigbee.delivered);
    }

    #[test]
    fn lost_ecc_notifications_raise_delay() {
        use bicord_ctc::ecc::EccConfig;
        let base = {
            let mut c = SimConfig::ecc(Location::A, 58, SimDuration::from_millis(30));
            c.duration = SimDuration::from_secs(5);
            CoexistenceSim::new(c).unwrap().run()
        };
        let lossy = {
            let mut c = SimConfig::bicord(Location::A, 58);
            c.mode = Mode::Ecc(EccConfig {
                notification_loss: 0.5,
                ..EccConfig::with_white_space(SimDuration::from_millis(30))
            });
            c.duration = SimDuration::from_secs(5);
            CoexistenceSim::new(c).unwrap().run()
        };
        let (bd, ld) = (
            base.zigbee.mean_delay_ms.expect("base delivered"),
            lossy.zigbee.mean_delay_ms.expect("lossy delivered"),
        );
        assert!(
            ld > bd * 1.3,
            "50% notification loss should raise delay: {bd} -> {ld} ms"
        );
    }

    #[test]
    fn two_nodes_both_get_served() {
        let mut config = SimConfig::bicord(Location::A, 50);
        config.extra_nodes.push(ExtraNodeConfig::at(Location::C));
        config.duration = SimDuration::from_secs(4);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert_eq!(r.per_node.len(), 2);
        for (i, node) in r.per_node.iter().enumerate() {
            assert!(node.generated > 0, "node {i} generated nothing");
            let pdr = node.delivered as f64 / node.generated as f64;
            assert!(pdr > 0.4, "node {i} PDR {pdr}");
        }
        // Aggregates are sums of the per-node numbers.
        assert_eq!(
            r.zigbee.delivered,
            r.per_node.iter().map(|n| n.delivered).sum::<u64>()
        );
    }

    #[test]
    fn heterogeneous_nodes_force_reestimation() {
        // Node 0 sends short bursts, node 1 long ones: the single shared
        // estimate must keep adjusting (Sec. VI's "multiple ZigBee nodes
        // with different traffic pattern").
        let mut config = SimConfig::bicord(Location::A, 51);
        config.zigbee.burst = BurstSpec {
            n_packets: 3,
            mpdu_bytes: 50,
        };
        let mut extra = ExtraNodeConfig::at(Location::C);
        extra.burst = BurstSpec {
            n_packets: 12,
            mpdu_bytes: 50,
        };
        config.extra_nodes.push(extra);
        config.duration = SimDuration::from_secs(6);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(r.per_node[0].delivered > 0);
        assert!(r.per_node[1].delivered > 0);
        // The white-space history must show materially different lengths.
        let hist = &r.allocation.white_space_history_ms;
        let min = hist.iter().cloned().fold(f64::MAX, f64::min);
        let max = hist.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max > min + 15.0,
            "white spaces never adapted: min {min}, max {max}"
        );
    }

    #[test]
    fn disjoint_channels_remove_the_interference() {
        // Wi-Fi channel 1 (2402-2422) and ZigBee channel 26 (2480): no
        // spectral overlap, so even "unprotected" ZigBee sails through and
        // BiCord never needs to signal.
        let mut config = SimConfig::unprotected(Location::D, 53);
        config.wifi_channel = 1;
        config.zigbee_channel = 26;
        config.duration = SimDuration::from_secs(3);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(
            r.zigbee_prr() > 0.9,
            "disjoint channels: PRR {}",
            r.zigbee_prr()
        );

        let mut config = SimConfig::bicord(Location::D, 53);
        config.wifi_channel = 1;
        config.zigbee_channel = 26;
        config.duration = SimDuration::from_secs(3);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert_eq!(
            r.zigbee.signaling_rounds, 0,
            "no interference, no reason to signal"
        );
        assert!(r.zigbee_pdr() > 0.9);
    }

    #[test]
    fn alternate_paper_channel_pair_works() {
        // The paper's other pair: Wi-Fi 13 / ZigBee 26 (also overlapping).
        let mut config = SimConfig::bicord(Location::A, 54);
        config.wifi_channel = 13;
        config.zigbee_channel = 26;
        config.duration = SimDuration::from_secs(3);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(r.zigbee.signaling_rounds > 0, "signaling must happen");
        assert!(r.zigbee_pdr() > 0.6, "PDR {}", r.zigbee_pdr());
    }

    #[test]
    fn two_wifi_stations_share_the_channel() {
        let mut config = SimConfig::bicord(Location::A, 60);
        config.zigbee.arrivals =
            bicord_workloads::traffic::ArrivalProcess::Periodic(SimDuration::from_secs(1000));
        config.extra_wifi = Some(crate::config::ExtraWifiConfig::default());
        config.duration = SimDuration::from_secs(3);
        let r = CoexistenceSim::new(config).unwrap().run();
        // Both stations transmit; DCF carrier sense keeps them mostly
        // collision-free, so the received-frame count stays high.
        assert!(
            r.wifi.frames_sent > 500,
            "primary sent {}",
            r.wifi.frames_sent
        );
        // Only the primary's frames count as received, so this ratio
        // measures the primary alone.
        assert!(
            r.wifi.frames_received <= r.wifi.frames_sent,
            "received {} > sent {}: the contender's frames leaked into the count",
            r.wifi.frames_received,
            r.wifi.frames_sent
        );
        assert!(
            r.wifi.frames_received as f64 / r.wifi.frames_sent as f64 > 0.2,
            "primary frames drowned by the contender"
        );
        assert!(r.utilization > 0.7, "utilization {}", r.utilization);
    }

    #[test]
    fn contending_station_honours_the_nav() {
        // The paper's CTS-to-self only works if *other* stations stay
        // silent during the white space. With the contender present,
        // BiCord's ZigBee bursts must still be protected.
        let mut config = SimConfig::bicord(Location::A, 61);
        config.extra_wifi = Some(crate::config::ExtraWifiConfig::default());
        config.duration = SimDuration::from_secs(4);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(r.wifi.reservations > 0, "no white spaces reserved");
        assert!(
            r.zigbee_pdr() > 0.6,
            "NAV not honoured: PDR {} with a contender present",
            r.zigbee_pdr()
        );
        assert!(
            r.zigbee.mean_delay_ms.unwrap_or(f64::MAX) < 100.0,
            "delay exploded with a contender"
        );
    }

    #[test]
    fn bluetooth_interference_does_not_trigger_signaling() {
        // Sec. VII-A: "If the detected channel activity is not coming from
        // a nearby Wi-Fi device ... the ZigBee node does not perform
        // cross-technology signaling." Remove the Wi-Fi sender from the
        // band (disjoint channel) and jam with Bluetooth near the node.
        let mut config = SimConfig::bicord(Location::A, 56);
        config.wifi_channel = 1; // out of the ZigBee band
        config.bluetooth = Some(crate::config::BluetoothConfig {
            position: Location::A.sender_position().offset(0.5, 0.3),
            ..crate::config::BluetoothConfig::default()
        });
        config.duration = SimDuration::from_secs(4);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert_eq!(
            r.zigbee.signaling_rounds, 0,
            "must not signal at a Bluetooth interferer"
        );
        // CSMA + retries still get most packets through the 18 %-duty
        // hopper.
        assert!(r.zigbee_pdr() > 0.5, "PDR {}", r.zigbee_pdr());
    }

    #[test]
    fn bluetooth_plus_wifi_still_signals_at_wifi() {
        // With both interferers active, Wi-Fi dominates (saturated duty)
        // and signaling proceeds as usual.
        let mut config = SimConfig::bicord(Location::A, 57);
        config.bluetooth = Some(crate::config::BluetoothConfig::default());
        config.duration = SimDuration::from_secs(3);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(
            r.zigbee.signaling_rounds > 0,
            "Wi-Fi is the dominant jammer"
        );
        assert!(r.zigbee_pdr() > 0.5, "PDR {}", r.zigbee_pdr());
    }

    #[test]
    fn trace_recording_captures_the_coordination() {
        let mut config = SimConfig::bicord(Location::A, 55);
        config.duration = SimDuration::from_secs(2);
        config.record_trace = true;
        let r = CoexistenceSim::new(config).unwrap().run();
        let trace = r.trace.as_ref().expect("trace was requested");
        use crate::trace::SpanKind as K;
        let kinds: Vec<bool> = vec![
            trace.spans().iter().any(|s| s.kind == K::WifiData),
            trace.spans().iter().any(|s| s.kind == K::WifiCts),
            trace.spans().iter().any(|s| s.kind == K::WhiteSpace),
            trace
                .spans()
                .iter()
                .any(|s| matches!(s.kind, K::ZigbeeData { .. })),
            trace
                .spans()
                .iter()
                .any(|s| matches!(s.kind, K::ZigbeeControl { .. })),
        ];
        assert!(kinds.iter().all(|&k| k), "missing span kinds: {kinds:?}");
        // Rendering the first 200 ms produces the four lanes.
        let art = trace.render(SimTime::ZERO, SimTime::from_millis(200), 80);
        assert_eq!(art.lines().count(), 5);
        // Without the flag, no trace comes back.
        let mut config = SimConfig::bicord(Location::A, 55);
        config.duration = SimDuration::from_secs(1);
        let r = CoexistenceSim::new(config).unwrap().run();
        assert!(r.trace.is_none());
    }

    #[test]
    fn two_unprotected_nodes_carrier_sense_each_other() {
        // With Wi-Fi effectively absent (tiny power), two ZigBee pairs at
        // nearby locations share the channel through plain CSMA: both
        // should deliver essentially everything.
        let mut config = SimConfig::unprotected(Location::A, 52);
        config.wifi.tx_power = Dbm::new(-60.0);
        config.extra_nodes.push(ExtraNodeConfig::at(Location::C));
        config.duration = SimDuration::from_secs(4);
        let r = CoexistenceSim::new(config).unwrap().run();
        for (i, node) in r.per_node.iter().enumerate() {
            let pdr = node.delivered as f64 / node.generated.max(1) as f64;
            assert!(pdr > 0.8, "node {i} PDR {pdr} on a clear channel");
        }
    }

    #[test]
    fn new_rejects_invalid_config() {
        let mut config = SimConfig::bicord(Location::A, 1);
        config.duration = SimDuration::ZERO;
        assert!(CoexistenceSim::new(config).is_err());

        let mut config = SimConfig::bicord(Location::A, 1);
        config.zigbee.burst.n_packets = 0;
        assert!(CoexistenceSim::new(config).is_err());
    }

    #[test]
    fn zero_rate_fault_profile_is_bit_identical_to_no_faults() {
        use bicord_sim::obs::VecSink;
        use bicord_sim::FaultProfile;
        let base = {
            let mut c = SimConfig::bicord(Location::A, 21);
            c.duration = SimDuration::from_secs(2);
            c
        };
        let mut faulted = base.clone();
        faulted.fault = FaultProfile {
            control_loss: 0.0,
            cts_loss: 0.0,
            csi_false_positive: 0.0,
            churn_period: None,
            churn_range_m: 3.0, // irrelevant without a churn period
        };
        let mut sink_a = VecSink::new();
        let mut sink_b = VecSink::new();
        let a = CoexistenceSim::with_sink(base, &mut sink_a).unwrap().run();
        let b = CoexistenceSim::with_sink(faulted, &mut sink_b)
            .unwrap()
            .run();
        assert_eq!(a, b, "zero-rate faults must not perturb the run");
        assert_eq!(sink_a.events, sink_b.events, "traces must match");
    }

    #[test]
    fn heavy_control_loss_degrades_to_csma_without_deadlock() {
        use bicord_sim::obs::VecSink;
        use bicord_sim::FaultProfile;
        let run = |control_loss: f64| {
            let mut config = SimConfig::bicord(Location::A, 22);
            config.duration = SimDuration::from_secs(8);
            config.fault = FaultProfile {
                control_loss,
                ..FaultProfile::default()
            };
            let mut sink = VecSink::new();
            let r = CoexistenceSim::with_sink(config, &mut sink).unwrap().run();
            (r, sink)
        };

        // Moderate loss: controls survive often enough (each control packet
        // spans several Wi-Fi frames, so the classifier gets multiple
        // samples per packet) and coordination keeps working.
        let (moderate, sink) = run(0.25);
        assert!(moderate.zigbee.generated > 0);
        assert!(moderate.wifi.reservations > 0);
        assert!(
            moderate.zigbee_pdr() > 0.6,
            "25% loss PDR {}",
            moderate.zigbee_pdr()
        );
        assert!(!sink.of_kind("fault_control_lost").is_empty());

        // Extreme loss: whole signaling rounds go unanswered, the bounded
        // retry exhausts, and the client degrades to plain CSMA for the
        // rest of the burst — but the run still completes and delivers.
        let (extreme, sink) = run(0.9);
        assert!(extreme.zigbee.generated > 0);
        assert!(
            extreme.zigbee_pdr() > 0.3,
            "coordination must degrade gracefully, PDR {}",
            extreme.zigbee_pdr()
        );
        assert!(
            extreme.zigbee.csma_fallbacks > 0,
            "90% control loss must trigger CSMA fallback at least once"
        );
        assert!(!sink.of_kind("signaling_backoff").is_empty());
        assert_eq!(
            sink.of_kind("csma_fallback").len() as u64,
            extreme.zigbee.csma_fallbacks
        );
    }

    #[test]
    fn cts_loss_exposes_white_spaces_to_contention() {
        use bicord_sim::obs::VecSink;
        use bicord_sim::FaultProfile;
        let mut config = SimConfig::bicord(Location::A, 23);
        config.extra_wifi = Some(crate::config::ExtraWifiConfig::default());
        config.duration = SimDuration::from_secs(4);
        config.fault = FaultProfile {
            cts_loss: 1.0,
            ..FaultProfile::default()
        };
        let mut sink = VecSink::new();
        let r = CoexistenceSim::with_sink(config, &mut sink).unwrap().run();
        let lost = sink.of_kind("fault_cts_lost").len() as u64;
        assert_eq!(
            lost, r.wifi.reservations,
            "every reservation's CTS was configured to be lost"
        );
        assert!(r.zigbee.generated > 0);
    }

    #[test]
    fn fault_churn_composes_with_mobility_deterministically() {
        use bicord_sim::obs::VecSink;
        use bicord_sim::FaultProfile;
        use bicord_workloads::mobility::DeviceMobility;
        let config = || {
            let mut c = SimConfig::bicord(Location::A, 24);
            c.duration = SimDuration::from_secs(3);
            let mut walk_rng = bicord_sim::stream_rng(24, bicord_sim::SeedDomain::Aux, 0);
            c.device_mobility = Some(DeviceMobility::generate(
                Location::A.sender_position(),
                1.0,
                c.duration,
                SimDuration::from_millis(400),
                &mut walk_rng,
            ));
            c.fault = FaultProfile {
                churn_period: Some(SimDuration::from_millis(250)),
                churn_range_m: 0.5,
                ..FaultProfile::default()
            };
            c
        };
        let run = || {
            let mut sink = VecSink::new();
            let r = CoexistenceSim::with_sink(config(), &mut sink)
                .unwrap()
                .run();
            let churn = sink.of_kind("fault_churn");
            assert!(!churn.is_empty(), "churn steps must fire");
            // Cached link budgets existed and were actually dropped at
            // least once (the invalidate_shadowing path is exercised).
            let dropped: u32 = churn
                .iter()
                .map(|e| match e {
                    TraceEvent::FaultChurn { dropped, .. } => *dropped,
                    _ => 0,
                })
                .sum();
            assert!(dropped > 0, "churn never invalidated a cached entry");
            // Mobility's own invalidations still fire alongside churn.
            assert!(!sink.of_kind("medium_cache_invalidated").is_empty());
            (r, sink)
        };
        let (a, sink_a) = run();
        let (b, sink_b) = run();
        assert_eq!(a, b, "churn + mobility must stay deterministic");
        assert_eq!(sink_a.events, sink_b.events);
    }

    #[test]
    fn instrumented_run_matches_uninstrumented_results() {
        use bicord_sim::obs::VecSink;
        let mut config = SimConfig::bicord(Location::A, 7);
        config.duration = SimDuration::from_secs(3);

        let plain = CoexistenceSim::new(config.clone()).unwrap().run();
        let mut sink = VecSink::new();
        let traced = CoexistenceSim::with_sink(config, &mut sink).unwrap().run();

        // Instrumentation must be an observer, never a participant.
        assert_eq!(plain.zigbee.delivered, traced.zigbee.delivered);
        assert_eq!(plain.wifi.reservations, traced.wifi.reservations);
        assert_eq!(
            plain.zigbee.signaling_rounds,
            traced.zigbee.signaling_rounds
        );

        // The trace mirrors the aggregate counters.
        assert_eq!(
            sink.of_kind("reservation").len() as u64,
            traced.wifi.reservations
        );
        assert_eq!(
            sink.of_kind("packet_delivered").len() as u64,
            traced.zigbee.delivered
        );
        assert!(!sink.of_kind("dequeue").is_empty());
        assert!(!sink.of_kind("csi_classified").is_empty());
        assert!(!sink.of_kind("estimate").is_empty());
        assert!(!sink.of_kind("channel_request").is_empty());
        assert!(!sink.of_kind("white_space").is_empty());

        // Records arrive in non-decreasing simulation-time order per kind
        // (the DES dequeues monotonically; sub-events share the dequeue time).
        let times: Vec<u64> = sink
            .of_kind("dequeue")
            .iter()
            .map(|e| e.time_us())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
