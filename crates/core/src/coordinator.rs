//! The Wi-Fi-side BiCord coordinator.
//!
//! Ties the [`crate::signaling::CsiDetector`] and the
//! [`crate::allocation::WhiteSpaceAllocator`] together into one sans-IO
//! state machine:
//!
//! * every CSI sample flows in; a positive detection (if the device is
//!   currently willing to serve ZigBee — Sec. VIII-G priority override)
//!   asks the allocator for a white-space length and emits a
//!   [`CoordinatorAction::Reserve`], which the scenario turns into a
//!   CTS-to-self;
//! * a burst-end timer is (re)armed past the end of each reservation; if no
//!   further request arrives before it fires, the allocator's estimation
//!   step runs (Sec. VI "the end of ZigBee's transmissions is detected once
//!   the Wi-Fi device no longer detects ZigBee traffic for a given time").

use bicord_phy::csi::{CsiModel, CsiSample};
use bicord_sim::obs::{EventSink, TraceEvent};
use bicord_sim::{SimDuration, SimTime};

use crate::allocation::{AllocatorConfig, WhiteSpaceAllocator};
use crate::signaling::{CsiDetector, Detection, DetectorConfig};

/// Timers the coordinator asks the scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinatorTimer {
    /// The burst-end quiet gap elapsed with no new request.
    BurstEnd,
}

/// Instructions emitted by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoordinatorAction {
    /// Reserve the channel (CTS-to-self) for the given duration.
    Reserve(SimDuration),
    /// (Re)arm a timer.
    SetTimer {
        /// Which timer.
        timer: CoordinatorTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm a timer.
    CancelTimer(CoordinatorTimer),
}

/// Coordinator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorConfig {
    /// CSI detector rule.
    pub detector: DetectorConfig,
    /// White-space allocator parameters.
    pub allocator: AllocatorConfig,
    /// Whether the device responds to requests at all (false while serving
    /// high-priority traffic).
    pub respond_to_requests: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            detector: DetectorConfig::default(),
            allocator: AllocatorConfig::default(),
            respond_to_requests: true,
        }
    }
}

/// The Wi-Fi-side coordinator state machine.
///
/// Every handler appends its actions to a caller-owned buffer and never
/// touches what the buffer already holds, and writes its observability
/// records into the sink it is given (tests pass `&mut NoopSink`).
///
/// # Example
///
/// ```
/// use bicord_core::coordinator::{BicordCoordinator, CoordinatorAction, CoordinatorConfig};
/// use bicord_phy::csi::{CsiModel, CsiSample};
/// use bicord_sim::{NoopSink, SimTime};
///
/// let mut coord = BicordCoordinator::new(CoordinatorConfig::default(), CsiModel::intel5300());
/// let mut actions = Vec::new();
/// // Two consecutive high-fluctuation samples = a channel request:
/// for ms in [1, 2] {
///     let sample = CsiSample { time: SimTime::from_millis(ms), deviation: 0.6 };
///     coord.on_csi_sample(sample, &mut NoopSink, &mut actions);
/// }
/// assert!(actions.iter().any(|a| matches!(a, CoordinatorAction::Reserve(_))));
/// ```
#[derive(Debug, Clone)]
pub struct BicordCoordinator {
    detector: CsiDetector,
    allocator: WhiteSpaceAllocator,
    respond: bool,
    reservations: u64,
    ignored_requests: u64,
}

impl BicordCoordinator {
    /// Creates a coordinator.
    pub fn new(config: CoordinatorConfig, csi_model: CsiModel) -> Self {
        BicordCoordinator {
            detector: CsiDetector::new(config.detector, csi_model),
            allocator: WhiteSpaceAllocator::new(config.allocator),
            respond: config.respond_to_requests,
            reservations: 0,
            ignored_requests: 0,
        }
    }

    /// The underlying allocator (estimates, phase, statistics).
    pub fn allocator(&self) -> &WhiteSpaceAllocator {
        &self.allocator
    }

    /// The underlying detector (sample/positive counters).
    pub fn detector(&self) -> &CsiDetector {
        &self.detector
    }

    /// Total white spaces reserved.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Requests detected while responding was disabled.
    pub fn ignored_requests(&self) -> u64 {
        self.ignored_requests
    }

    /// Enables or disables responding to requests (the Sec. VIII-G
    /// priority override: a device streaming video keeps transmitting).
    pub fn set_respond(&mut self, respond: bool) {
        self.respond = respond;
    }

    /// `true` if the coordinator currently serves requests.
    pub fn responds(&self) -> bool {
        self.respond
    }

    /// Feeds one CSI sample; may emit a reservation. The detector emits
    /// its per-sample classification/detection records and the allocator
    /// its round/estimate records into `sink`.
    pub fn on_csi_sample<S: EventSink>(
        &mut self,
        sample: CsiSample,
        sink: &mut S,
        out: &mut Vec<CoordinatorAction>,
    ) {
        if let Some(detection) = self.detector.push_obs(sample, sink) {
            self.on_detection(detection, sink, out);
        }
    }

    /// Handles a positive detection directly (exposed for tests and for
    /// scenarios that run their own detector). Emits the allocator's
    /// round records and a [`TraceEvent::Reservation`] when a white space
    /// is granted.
    pub fn on_detection<S: EventSink>(
        &mut self,
        detection: Detection,
        sink: &mut S,
        out: &mut Vec<CoordinatorAction>,
    ) {
        if !self.respond {
            self.ignored_requests += 1;
            return;
        }
        let now = detection.at;
        let ws = self.allocator.on_request_obs(now, sink);
        self.reservations += 1;
        sink.emit(&TraceEvent::Reservation {
            t_us: now.as_micros(),
            ws_us: ws.as_micros(),
        });
        let gap = self.allocator.config().end_detect_gap;
        out.extend([
            CoordinatorAction::Reserve(ws),
            CoordinatorAction::CancelTimer(CoordinatorTimer::BurstEnd),
            CoordinatorAction::SetTimer {
                timer: CoordinatorTimer::BurstEnd,
                at: now + ws + gap,
            },
        ]);
    }

    /// Handles an expired timer. Burst-end timers run the allocator's
    /// estimation step, which emits its
    /// [`TraceEvent::Estimate`]/[`TraceEvent::ReEstimate`] records and no
    /// actions; the buffer keeps the one handler signature.
    pub fn on_timer<S: EventSink>(
        &mut self,
        now: SimTime,
        timer: CoordinatorTimer,
        sink: &mut S,
        _out: &mut Vec<CoordinatorAction>,
    ) {
        match timer {
            CoordinatorTimer::BurstEnd => {
                self.allocator.on_burst_end_obs(now, sink);
            }
        }
    }

    /// Resets the detector's sliding window (e.g. when the CSI stream
    /// pauses during a white space).
    pub fn reset_detector_window(&mut self) {
        self.detector.reset_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationPhase;
    use bicord_sim::NoopSink;

    /// Collects one handler call's actions into a fresh buffer.
    fn acts(f: impl FnOnce(&mut Vec<CoordinatorAction>)) -> Vec<CoordinatorAction> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    fn coord() -> BicordCoordinator {
        BicordCoordinator::new(CoordinatorConfig::default(), CsiModel::intel5300())
    }

    fn high(ms: u64) -> CsiSample {
        CsiSample {
            time: SimTime::from_millis(ms),
            deviation: 0.7,
        }
    }

    fn reserve_len(actions: &[CoordinatorAction]) -> Option<SimDuration> {
        actions.iter().find_map(|a| match a {
            CoordinatorAction::Reserve(d) => Some(*d),
            _ => None,
        })
    }

    #[test]
    fn detection_triggers_reservation_and_burst_end_timer() {
        let mut c = coord();
        assert!(acts(|o| c.on_csi_sample(high(10), &mut NoopSink, o)).is_empty());
        let actions = acts(|o| c.on_csi_sample(high(11), &mut NoopSink, o));
        let ws = reserve_len(&actions).expect("reservation expected");
        assert_eq!(ws, SimDuration::from_millis(30));
        // Burst-end timer = detection + ws + 20 ms gap.
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordinatorAction::SetTimer { timer: CoordinatorTimer::BurstEnd, at }
                if *at == SimTime::from_millis(11 + 30 + 25)
        )));
        assert_eq!(c.reservations(), 1);
    }

    #[test]
    fn quiet_gap_without_requests_ends_burst() {
        let mut c = coord();
        let _ = acts(|o| c.on_csi_sample(high(10), &mut NoopSink, o));
        let _ = acts(|o| c.on_csi_sample(high(11), &mut NoopSink, o));
        assert!(c.allocator().burst_active());
        let _ = acts(|o| {
            c.on_timer(
                SimTime::from_millis(61),
                CoordinatorTimer::BurstEnd,
                &mut NoopSink,
                o,
            )
        });
        assert!(!c.allocator().burst_active());
        // Single round → converged.
        assert_eq!(c.allocator().phase(), AllocationPhase::Converged);
    }

    #[test]
    fn repeated_requests_accumulate_rounds() {
        let mut c = coord();
        // Round 1:
        let _ = acts(|o| c.on_csi_sample(high(10), &mut NoopSink, o));
        let _ = acts(|o| c.on_csi_sample(high(11), &mut NoopSink, o));
        // Round 2 (after the white space, > holdoff later):
        let _ = acts(|o| c.on_csi_sample(high(45), &mut NoopSink, o));
        let actions = acts(|o| c.on_csi_sample(high(46), &mut NoopSink, o));
        assert!(reserve_len(&actions).is_some());
        assert_eq!(c.allocator().rounds_this_burst(), 2);
        // End of burst: Eq. 1 gives (30-16)*2 = 28 ms, below the stall-
        // breaking minimum growth of step/4, so the estimate lands at
        // 30 + 7.5 = 37.5 ms.
        let _ = acts(|o| {
            c.on_timer(
                SimTime::from_millis(120),
                CoordinatorTimer::BurstEnd,
                &mut NoopSink,
                o,
            )
        });
        assert_eq!(c.allocator().estimate(), SimDuration::from_micros(37_500));
    }

    #[test]
    fn priority_mode_ignores_requests() {
        let mut c = coord();
        c.set_respond(false);
        assert!(!c.responds());
        let _ = acts(|o| c.on_csi_sample(high(10), &mut NoopSink, o));
        let actions = acts(|o| c.on_csi_sample(high(11), &mut NoopSink, o));
        assert!(actions.is_empty());
        assert_eq!(c.ignored_requests(), 1);
        assert_eq!(c.reservations(), 0);
        // Re-enabling serves the next request.
        c.set_respond(true);
        let _ = acts(|o| c.on_csi_sample(high(40), &mut NoopSink, o));
        let actions = acts(|o| c.on_csi_sample(high(41), &mut NoopSink, o));
        assert!(reserve_len(&actions).is_some());
    }

    #[test]
    fn low_samples_never_reserve() {
        let mut c = coord();
        for i in 0..100 {
            let s = CsiSample {
                time: SimTime::from_micros(i * 500),
                deviation: 0.05,
            };
            assert!(acts(|o| c.on_csi_sample(s, &mut NoopSink, o)).is_empty());
        }
        assert_eq!(c.reservations(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        // Model-based property: feed the coordinator synthetic bursts of
        // high-fluctuation CSI (each burst = one ZigBee request round,
        // separated far enough to be distinct bursts) and check the
        // allocator's reservations stay within configured bounds and the
        // burst accounting matches.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn synthetic_request_patterns_keep_invariants(
                bursts in proptest::collection::vec(
                    // (rounds per burst, gap to next burst in ms)
                    (1u64..5, 200u64..800),
                    1..12,
                ),
            ) {
                let mut c = coord();
                let cfg = c.allocator().config();
                let mut now_ms = 10u64;
                let mut served = 0u64;
                for (rounds, gap_ms) in bursts {
                    for _ in 0..rounds {
                        // Two highs 1 ms apart fire the detector.
                        let _ = acts(|o| c.on_csi_sample(high(now_ms), &mut NoopSink, o));
                        let actions = acts(|o| c.on_csi_sample(high(now_ms + 1), &mut NoopSink, o));
                        let ws = reserve_len(&actions);
                        if let Some(ws) = ws {
                            prop_assert!(ws >= cfg.min_white_space);
                            prop_assert!(ws <= cfg.max_white_space);
                            // Advance past the white space (the next round
                            // arrives just after it, inside the burst-end
                            // gap).
                            now_ms += 1 + ws.as_micros() / 1000 + 5;
                        } else {
                            // Hold-off suppressed a duplicate — nudge
                            // forward.
                            now_ms += 15;
                        }
                    }
                    // Quiet gap: the burst ends.
                    let last_ws = c.allocator().estimate();
                    let burst_end = SimTime::from_millis(now_ms)
                        + last_ws
                        + cfg.end_detect_gap;
                    let _ = acts(|o| c.on_timer(burst_end, CoordinatorTimer::BurstEnd, &mut NoopSink, o));
                    prop_assert!(!c.allocator().burst_active());
                    served += 1;
                    prop_assert_eq!(c.allocator().bursts_seen(), served);
                    now_ms += gap_ms.max(cfg.end_detect_gap.as_micros() / 1000 + 40);
                }
                prop_assert_eq!(c.reservations(), c.detector().positives());
            }
        }
    }

    #[test]
    fn detector_window_reset_passthrough() {
        let mut c = coord();
        let _ = acts(|o| c.on_csi_sample(high(10), &mut NoopSink, o));
        c.reset_detector_window();
        assert!(
            acts(|o| c.on_csi_sample(high(11), &mut NoopSink, o)).is_empty(),
            "window was cleared"
        );
    }

    /// The scenario stacks nested handler calls on one buffer, so every
    /// handler must leave what the buffer already holds untouched and
    /// append exactly what it would emit into an empty buffer.
    #[test]
    fn every_handler_appends_after_existing_actions() {
        const SENTINEL: CoordinatorAction =
            CoordinatorAction::CancelTimer(CoordinatorTimer::BurstEnd);
        type Step = fn(&mut BicordCoordinator, &mut Vec<CoordinatorAction>);
        let steps: [(&str, Step); 5] = [
            ("on_csi_sample", |c, o| {
                c.on_csi_sample(high(10), &mut NoopSink, o)
            }),
            ("on_csi_sample", |c, o| {
                c.on_csi_sample(high(11), &mut NoopSink, o)
            }),
            ("on_detection", |c, o| {
                let detection = Detection {
                    at: SimTime::from_millis(50),
                    window_start: SimTime::from_millis(49),
                    highs_in_window: 2,
                };
                c.on_detection(detection, &mut NoopSink, o)
            }),
            ("on_timer", |c, o| {
                c.on_timer(
                    SimTime::from_millis(200),
                    CoordinatorTimer::BurstEnd,
                    &mut NoopSink,
                    o,
                )
            }),
            ("on_csi_sample", |c, o| {
                c.on_csi_sample(high(300), &mut NoopSink, o)
            }),
        ];
        let (mut fresh_coord, mut seeded_coord) = (coord(), coord());
        let mut emitted = 0;
        for (name, step) in steps {
            let mut fresh = Vec::new();
            step(&mut fresh_coord, &mut fresh);
            let mut seeded = vec![SENTINEL];
            step(&mut seeded_coord, &mut seeded);
            assert_eq!(seeded[0], SENTINEL, "{name} touched the existing action");
            assert_eq!(
                &seeded[1..],
                fresh.as_slice(),
                "{name} did not append in order"
            );
            emitted += fresh.len();
        }
        assert_eq!(emitted, 6, "the walk must exercise real actions");
    }
}
