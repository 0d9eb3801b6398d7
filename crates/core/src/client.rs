//! The ZigBee-side BiCord client.
//!
//! Orchestrates one ZigBee node's life under cross-technology interference
//! (Fig. 2 of the paper):
//!
//! 1. **Send normally** — application bursts go through standard 802.15.4
//!    CSMA/CA with ACKs.
//! 2. **Diagnose failure** — a channel-access failure or exhausted retries
//!    triggers CTI detection: capture an RSSI trace, classify the
//!    technology, and (for Wi-Fi) identify the transmitter to pick the
//!    signaling power from the PowerMap.
//! 3. **Signal** — transmit 120 B control packets (bypassing CCA) until a
//!    white space opens or the attempt budget is exhausted.
//! 4. **Transmit in the white space** — resume the data burst; if the
//!    white space ends early, the next failure loops back to step 3 (a new
//!    learning round for the Wi-Fi side).
//!
//! The client is sans-IO like the MAC machines: the scenario routes its
//! actions to the `ZigbeeMac`, the medium, and the event queue.

use std::collections::VecDeque;

use bicord_mac::zigbee::{FailReason, ZigbeeNotification};
use bicord_phy::interferers::{InterfererKind, RssiTrace};
use bicord_phy::units::Dbm;
use bicord_sim::{SimDuration, SimTime};

use crate::cti::{classify, extract_features, KMeans, PowerMap};
use crate::signaling::SignalingPolicy;

/// Timers the client asks the scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientTimer {
    /// Application-level gap between data packets of a burst (`T_i`).
    NextPacket,
    /// Wait after a control packet for a white space to open.
    SignalGap,
    /// Back-off before retrying after a failed/ignored request or
    /// non-Wi-Fi interference.
    Retry,
}

/// Instructions emitted by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientAction {
    /// Hand a data frame to the ZigBee MAC (CSMA/CA + ACK).
    MacSendData {
        /// Application sequence number.
        seq: u32,
        /// MPDU length in bytes.
        bytes: usize,
    },
    /// Hand a control packet to the ZigBee MAC (no CCA, no ACK).
    MacSendControl {
        /// MPDU length in bytes.
        bytes: usize,
    },
    /// Change the radio's transmission power.
    SetTxPower(Dbm),
    /// Capture a fast RSSI trace and deliver it via
    /// [`BicordClient::on_trace`].
    CaptureTrace,
    /// (Re)arm a timer.
    SetTimer {
        /// Which timer.
        timer: ClientTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm a timer.
    CancelTimer(ClientTimer),
    /// A data packet was delivered (metrics hook).
    PacketDelivered {
        /// Application sequence number.
        seq: u32,
        /// MAC attempts used.
        attempts: u32,
    },
    /// The whole burst finished (delivered + given-up packets).
    BurstComplete {
        /// Packets delivered.
        delivered: u32,
        /// Packets abandoned.
        failed: u32,
    },
    /// A signaling round went unanswered and the client is backing off
    /// before re-signaling (observability hook).
    SignalingBackoff {
        /// Consecutive unanswered rounds so far (including this one).
        failures: u32,
    },
    /// The client gave up on signaling for this burst after `k`
    /// consecutive unanswered rounds and fell back to plain CSMA
    /// (observability hook).
    FallbackToCsma {
        /// Consecutive unanswered rounds that triggered the fallback.
        failures: u32,
    },
}

/// Client configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Signaling policy (control length, packet budget).
    pub policy: SignalingPolicy,
    /// Application-level packet interval `T_i` within a burst.
    pub packet_interval: SimDuration,
    /// Power used for data transmission.
    pub data_power: Dbm,
    /// Default signaling power for unknown Wi-Fi devices.
    pub default_signal_power: Dbm,
    /// How long to wait after each control packet before concluding no
    /// white space is coming.
    pub signal_gap: SimDuration,
    /// Back-off before retrying after an ignored request / non-Wi-Fi
    /// interference.
    pub retry_backoff: SimDuration,
    /// Busy threshold used when extracting trace features.
    pub busy_threshold_dbm: f64,
    /// Noise floor used when extracting trace features.
    pub noise_floor_dbm: f64,
    /// How long a Wi-Fi interference diagnosis stays valid. Within this
    /// window new bursts signal immediately (the PowerMap is known)
    /// instead of first burning a full CSMA channel-access failure.
    pub diagnosis_ttl: SimDuration,
    /// After this many *consecutive* unanswered signaling rounds the
    /// client stops re-signaling for the remainder of the burst and falls
    /// back to plain CSMA (graceful degradation when the Wi-Fi side never
    /// answers). Signaling resumes with the next burst. Must be ≥ 1.
    pub max_signaling_failures: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            policy: SignalingPolicy::default(),
            packet_interval: SimDuration::from_millis(4),
            data_power: Dbm::new(0.0),
            default_signal_power: Dbm::new(0.0),
            signal_gap: SimDuration::from_millis(6),
            retry_backoff: SimDuration::from_millis(50),
            busy_threshold_dbm: -80.0,
            noise_floor_dbm: -95.0,
            diagnosis_ttl: SimDuration::from_secs(10),
            max_signaling_failures: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No burst pending.
    Idle,
    /// A data frame is with the MAC.
    Sending,
    /// Waiting for the inter-packet interval.
    BetweenPackets,
    /// Waiting for the RSSI trace after a failure.
    Classifying,
    /// A control packet is with the MAC / waiting for the white space.
    Signaling,
    /// Backing off before a retry.
    WaitingRetry,
}

/// The burst in progress. Between bursts it is inactive with an empty
/// queue, which keeps its allocation for the next burst.
#[derive(Debug, Clone, Default)]
struct Burst {
    active: bool,
    pending: VecDeque<(u32, usize)>,
    delivered: u32,
    failed: u32,
}

/// The ZigBee-side client state machine.
///
/// Every handler appends its actions to a caller-owned buffer and never
/// touches what the buffer already holds, so a driver reuses one buffer
/// across calls.
///
/// # Example
///
/// ```
/// use bicord_core::client::{BicordClient, ClientAction, ClientConfig};
/// use bicord_sim::SimTime;
///
/// let mut client = BicordClient::new(ClientConfig::default());
/// let mut actions = Vec::new();
/// client.on_burst(SimTime::ZERO, 5, 50, &mut actions);
/// // The first packet goes straight to the MAC:
/// assert!(matches!(
///     actions.as_slice(),
///     [ClientAction::MacSendData { seq: 0, bytes: 50 }]
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct BicordClient {
    config: ClientConfig,
    power_map: PowerMap,
    fingerprinter: Option<KMeans>,
    state: State,
    burst: Burst,
    next_seq: u32,
    controls_this_request: u32,
    wifi_confirmed_at: Option<SimTime>,
    signal_power: Option<Dbm>,
    /// `true` between a sensed channel-clear (white space opened) and the
    /// next sensed Wi-Fi activity. Bursts arriving inside a white space
    /// are transmitted directly — signaling into a silent channel is
    /// useless (there are no Wi-Fi frames to disturb).
    channel_clear: bool,
    signaling_rounds: u64,
    bursts_completed: u64,
    /// Unanswered signaling rounds since the last answered one.
    consecutive_failures: u32,
    /// `true` once the current burst gave up on signaling entirely.
    csma_only_burst: bool,
    csma_fallbacks: u64,
}

impl BicordClient {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        let default_power = config.default_signal_power;
        BicordClient {
            config,
            power_map: PowerMap::new(default_power),
            fingerprinter: None,
            state: State::Idle,
            burst: Burst::default(),
            next_seq: 0,
            controls_this_request: 0,
            wifi_confirmed_at: None,
            signal_power: None,
            channel_clear: false,
            signaling_rounds: 0,
            bursts_completed: 0,
            consecutive_failures: 0,
            csma_only_burst: false,
            csma_fallbacks: 0,
        }
    }

    /// `true` while a Wi-Fi interference diagnosis is still fresh.
    fn wifi_confirmed(&self, now: SimTime) -> bool {
        self.wifi_confirmed_at
            .map(|at| now.saturating_since(at) < self.config.diagnosis_ttl)
            .unwrap_or(false)
    }

    /// Installs a fitted fingerprinting model (device identification).
    pub fn set_fingerprinter(&mut self, model: KMeans) {
        self.fingerprinter = Some(model);
    }

    /// The PowerMap (mutable, for pre-negotiated entries).
    pub fn power_map_mut(&mut self) -> &mut PowerMap {
        &mut self.power_map
    }

    /// Total signaling rounds performed.
    pub fn signaling_rounds(&self) -> u64 {
        self.signaling_rounds
    }

    /// Total bursts completed (delivered or abandoned).
    pub fn bursts_completed(&self) -> u64 {
        self.bursts_completed
    }

    /// How many times the client abandoned signaling for a burst and fell
    /// back to plain CSMA.
    pub fn csma_fallbacks(&self) -> u64 {
        self.csma_fallbacks
    }

    /// `true` if no burst is in progress.
    pub fn is_idle(&self) -> bool {
        self.state == State::Idle && !self.burst.active
    }

    /// Starts a burst of `n_packets` data frames of `bytes` each.
    ///
    /// If a burst is still in progress, the new packets are appended to it.
    pub fn on_burst(
        &mut self,
        now: SimTime,
        n_packets: u32,
        bytes: usize,
        out: &mut Vec<ClientAction>,
    ) {
        self.burst.active = true;
        for _ in 0..n_packets {
            self.burst.pending.push_back((self.next_seq, bytes));
            self.next_seq += 1;
        }
        if self.state == State::Idle {
            if !self.channel_clear && self.wifi_confirmed(now) {
                // The interference is known and the PowerMap entry is warm:
                // request the channel right away instead of burning a CSMA
                // channel-access failure first (Sec. VII-B: "ZigBee nodes
                // only perform cross-technology signaling once").
                let power = self
                    .signal_power
                    .unwrap_or(self.config.default_signal_power);
                out.push(ClientAction::SetTxPower(power));
                self.begin_signaling(now, out);
            } else {
                self.send_next(now, out);
            }
        }
    }

    /// Routes a MAC notification into the client.
    pub fn on_mac_notification(
        &mut self,
        now: SimTime,
        notification: ZigbeeNotification,
        out: &mut Vec<ClientAction>,
    ) {
        match notification {
            ZigbeeNotification::Delivered { seq, attempts } => {
                out.push(ClientAction::PacketDelivered { seq, attempts });
                if self.burst.active {
                    self.burst.delivered += 1;
                    // The MAC already popped its copy; drop ours.
                    self.burst.pending.pop_front();
                }
                if self.burst_finished() {
                    self.finish_burst(out);
                } else {
                    self.state = State::BetweenPackets;
                    out.push(ClientAction::SetTimer {
                        timer: ClientTimer::NextPacket,
                        at: now + self.config.packet_interval,
                    });
                }
            }
            ZigbeeNotification::Failed { seq: _, reason } => {
                // Keep the packet (the MAC dropped it; ours is still at the
                // front of `pending`) and diagnose the channel.
                let _ = reason;
                match reason {
                    FailReason::ChannelAccessFailure | FailReason::ExceededRetries => {
                        if self.csma_only_burst {
                            // The burst already degraded to plain CSMA:
                            // back off and retry the data without any
                            // further cross-technology signaling.
                            self.state = State::WaitingRetry;
                            out.push(ClientAction::SetTimer {
                                timer: ClientTimer::Retry,
                                at: now + self.config.retry_backoff,
                            });
                        } else if self.wifi_confirmed(now) {
                            // Skip classification; signal immediately (a
                            // later round of the same interference).
                            let power = self
                                .signal_power
                                .unwrap_or(self.config.default_signal_power);
                            out.push(ClientAction::SetTxPower(power));
                            self.begin_signaling(now, out);
                        } else {
                            self.state = State::Classifying;
                            out.push(ClientAction::CaptureTrace);
                        }
                    }
                }
            }
            ZigbeeNotification::ControlSent => {
                if self.state == State::Signaling {
                    out.push(ClientAction::SetTimer {
                        timer: ClientTimer::SignalGap,
                        at: now + self.config.signal_gap,
                    });
                }
            }
        }
    }

    /// Delivers the RSSI trace requested by [`ClientAction::CaptureTrace`].
    pub fn on_trace(&mut self, now: SimTime, trace: &RssiTrace, out: &mut Vec<ClientAction>) {
        if self.state != State::Classifying {
            return;
        }
        let features = extract_features(
            trace,
            self.config.busy_threshold_dbm,
            self.config.noise_floor_dbm,
        );
        match classify(&features) {
            Some(InterfererKind::Wifi) => {
                self.wifi_confirmed_at = Some(now);
                // Identify the transmitter to pick the right power.
                let device = self
                    .fingerprinter
                    .as_ref()
                    .map(|m| m.assign(&features.fingerprint()));
                let power = match device {
                    Some(d) => self.power_map.power_for(d),
                    None => self.config.default_signal_power,
                };
                self.signal_power = Some(power);
                out.push(ClientAction::SetTxPower(power));
                self.begin_signaling(now, out);
            }
            _ => {
                // Not Wi-Fi (or idle): signaling is useless — back off and
                // retry plain CSMA later (recovery schemes are orthogonal,
                // Sec. VII-A).
                self.state = State::WaitingRetry;
                out.push(ClientAction::SetTimer {
                    timer: ClientTimer::Retry,
                    at: now + self.config.retry_backoff,
                });
            }
        }
    }

    /// Notifies the client that the channel turned busy again (the Wi-Fi
    /// device resumed after a white space).
    ///
    /// If a burst is still in progress and the interference is already
    /// diagnosed, the client preempts the doomed CSMA attempt and signals
    /// immediately — flailing through `macMaxCSMABackoffs` busy CCAs first
    /// would let the Wi-Fi side's burst-end gap expire and split the burst
    /// into separate learning episodes.
    pub fn on_channel_busy(&mut self, now: SimTime, out: &mut Vec<ClientAction>) {
        self.channel_clear = false;
        if self.state == State::BetweenPackets
            && !self.burst_finished()
            && !self.csma_only_burst
            && self.wifi_confirmed(now)
        {
            out.push(ClientAction::CancelTimer(ClientTimer::NextPacket));
            let power = self
                .signal_power
                .unwrap_or(self.config.default_signal_power);
            out.push(ClientAction::SetTxPower(power));
            self.begin_signaling(now, out);
        }
    }

    /// Notifies the client that the channel went quiet (a white space
    /// opened). Resumes a signaling client's data; otherwise just records
    /// the channel state.
    pub fn on_channel_clear(&mut self, now: SimTime, out: &mut Vec<ClientAction>) {
        self.channel_clear = true;
        if self.state != State::Signaling {
            return;
        }
        out.push(ClientAction::CancelTimer(ClientTimer::SignalGap));
        out.push(ClientAction::SetTxPower(self.config.data_power));
        self.controls_this_request = 0;
        // An answered request clears the degradation pressure.
        self.consecutive_failures = 0;
        self.send_next(now, out);
    }

    /// Handles an expired timer.
    pub fn on_timer(&mut self, now: SimTime, timer: ClientTimer, out: &mut Vec<ClientAction>) {
        match (timer, self.state) {
            (ClientTimer::NextPacket, State::BetweenPackets) => {
                self.send_next(now, out);
            }
            (ClientTimer::SignalGap, State::Signaling) => {
                if self
                    .config
                    .policy
                    .should_continue(self.controls_this_request)
                {
                    self.controls_this_request += 1;
                    out.push(ClientAction::MacSendControl {
                        bytes: self.config.policy.control_bytes,
                    });
                } else {
                    // Request ignored by Wi-Fi: back off, try plain CSMA
                    // later.
                    self.controls_this_request = 0;
                    self.consecutive_failures += 1;
                    out.push(ClientAction::SignalingBackoff {
                        failures: self.consecutive_failures,
                    });
                    if self.consecutive_failures >= self.config.max_signaling_failures.max(1) {
                        // k consecutive unanswered rounds: stop signaling
                        // for this burst and degrade to plain CSMA.
                        self.csma_only_burst = true;
                        self.csma_fallbacks += 1;
                        out.push(ClientAction::FallbackToCsma {
                            failures: self.consecutive_failures,
                        });
                        self.consecutive_failures = 0;
                        out.push(ClientAction::SetTxPower(self.config.data_power));
                    }
                    self.state = State::WaitingRetry;
                    out.push(ClientAction::SetTimer {
                        timer: ClientTimer::Retry,
                        at: now + self.config.retry_backoff,
                    });
                }
            }
            (ClientTimer::Retry, State::WaitingRetry) => {
                self.send_next(now, out);
            }
            _ => {}
        }
    }

    fn begin_signaling(&mut self, _now: SimTime, actions: &mut Vec<ClientAction>) {
        self.state = State::Signaling;
        self.signaling_rounds += 1;
        self.controls_this_request = 1;
        actions.push(ClientAction::MacSendControl {
            bytes: self.config.policy.control_bytes,
        });
    }

    fn send_next(&mut self, _now: SimTime, actions: &mut Vec<ClientAction>) {
        if !self.burst.active {
            self.state = State::Idle;
            return;
        }
        let Some(&(seq, bytes)) = self.burst.pending.front() else {
            self.finish_burst(actions);
            return;
        };
        self.state = State::Sending;
        actions.push(ClientAction::MacSendData { seq, bytes });
    }

    fn burst_finished(&self) -> bool {
        self.burst.pending.is_empty()
    }

    fn finish_burst(&mut self, actions: &mut Vec<ClientAction>) {
        let burst = &mut self.burst;
        if burst.active {
            actions.push(ClientAction::BurstComplete {
                delivered: burst.delivered,
                failed: burst.failed,
            });
            self.bursts_completed += 1;
        }
        burst.active = false;
        burst.pending.clear();
        burst.delivered = 0;
        burst.failed = 0;
        self.state = State::Idle;
        // The Wi-Fi diagnosis outlives the burst (bounded by its TTL):
        // the next burst can signal immediately. A CSMA fallback does not —
        // every burst gets a fresh chance to coordinate.
        self.csma_only_burst = false;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicord_phy::interferers::{generate_trace, TraceConfig, TRACE_DURATION};
    use bicord_sim::{stream_rng, SeedDomain};

    fn client() -> BicordClient {
        BicordClient::new(ClientConfig::default())
    }

    /// Collects one handler call's actions into a fresh buffer.
    fn acts(f: impl FnOnce(&mut Vec<ClientAction>)) -> Vec<ClientAction> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    fn delivered(seq: u32) -> ZigbeeNotification {
        ZigbeeNotification::Delivered { seq, attempts: 1 }
    }

    fn failed_access(seq: u32) -> ZigbeeNotification {
        ZigbeeNotification::Failed {
            seq,
            reason: FailReason::ChannelAccessFailure,
        }
    }

    fn wifi_trace() -> RssiTrace {
        let mut rng = stream_rng(3, SeedDomain::Interferers, 30);
        generate_trace(&mut rng, &TraceConfig::wifi(-34.0), TRACE_DURATION)
    }

    fn bluetooth_trace() -> RssiTrace {
        // Dense under-floor undershoots guarantee the Bluetooth verdict
        // without depending on generator randomness.
        let mut samples = vec![-94.0; 100];
        for i in 0..30 {
            samples[i * 3] = -45.0;
            samples[i * 3 + 1] = -100.0;
        }
        RssiTrace {
            sample_period: bicord_phy::interferers::TRACE_SAMPLE_PERIOD,
            samples,
        }
    }

    #[test]
    fn clean_burst_flows_packet_by_packet() {
        let mut c = client();
        let actions = acts(|o| c.on_burst(SimTime::ZERO, 3, 50, o));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 0, bytes: 50 }]
        );
        // Packet 0 delivered → inter-packet timer:
        let actions = acts(|o| c.on_mac_notification(SimTime::from_millis(3), delivered(0), o));
        assert!(actions.contains(&ClientAction::PacketDelivered {
            seq: 0,
            attempts: 1
        }));
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer { timer: ClientTimer::NextPacket, at }
                if *at == SimTime::from_millis(7)
        )));
        // Timer fires → packet 1:
        let actions = acts(|o| c.on_timer(SimTime::from_millis(7), ClientTimer::NextPacket, o));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }]
        );
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(10), delivered(1), o));
        let actions = acts(|o| c.on_timer(SimTime::from_millis(14), ClientTimer::NextPacket, o));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 2, bytes: 50 }]
        );
        // Last delivery completes the burst:
        let actions = acts(|o| c.on_mac_notification(SimTime::from_millis(17), delivered(2), o));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 3,
            failed: 0
        }));
        assert!(c.is_idle());
        assert_eq!(c.bursts_completed(), 1);
    }

    #[test]
    fn failure_triggers_trace_capture_then_signaling() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 5, 50, o));
        let actions =
            acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        assert_eq!(actions, vec![ClientAction::CaptureTrace]);
        // Wi-Fi verdict → set power + first control packet:
        let actions = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::SetTxPower(_))));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
        assert_eq!(c.signaling_rounds(), 1);
    }

    #[test]
    fn white_space_resumes_data_at_data_power() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 2, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        // Channel clears (CTS white space):
        let actions = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        assert!(actions.contains(&ClientAction::SetTxPower(Dbm::new(0.0))));
        assert!(actions.contains(&ClientAction::MacSendData { seq: 0, bytes: 50 }));
        assert!(actions.contains(&ClientAction::CancelTimer(ClientTimer::SignalGap)));
    }

    #[test]
    fn signal_gap_without_white_space_sends_another_control() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 2, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let actions = acts(|o| c.on_timer(SimTime::from_millis(32), ClientTimer::SignalGap, o));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
    }

    #[test]
    fn exhausted_control_budget_backs_off() {
        let cfg = ClientConfig {
            policy: SignalingPolicy {
                max_packets: 2,
                ..SignalingPolicy::default()
            },
            ..ClientConfig::default()
        };
        let mut c = BicordClient::new(cfg);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        // Control 1 sent; gap; control 2; gap; then give up:
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let actions = acts(|o| c.on_timer(SimTime::from_millis(32), ClientTimer::SignalGap, o));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(37), ZigbeeNotification::ControlSent, o)
        });
        let actions = acts(|o| c.on_timer(SimTime::from_millis(43), ClientTimer::SignalGap, o));
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer {
                timer: ClientTimer::Retry,
                ..
            }
        )));
        // Retry timer restarts plain data:
        let actions = acts(|o| c.on_timer(SimTime::from_millis(93), ClientTimer::Retry, o));
        assert!(actions.contains(&ClientAction::MacSendData { seq: 0, bytes: 50 }));
    }

    /// Drives one full unanswered signaling round for a client built with
    /// `max_packets: 2`: both controls go out, both signal gaps expire,
    /// and the final timer's actions (the backoff decision) are returned.
    fn exhaust_round(c: &mut BicordClient, t0: SimTime) -> Vec<ClientAction> {
        let step = SimDuration::from_millis(6);
        let _ = acts(|o| c.on_mac_notification(t0, ZigbeeNotification::ControlSent, o));
        let _ = acts(|o| c.on_timer(t0 + step, ClientTimer::SignalGap, o));
        let _ = acts(|o| c.on_mac_notification(t0 + step * 2, ZigbeeNotification::ControlSent, o));
        acts(|o| c.on_timer(t0 + step * 3, ClientTimer::SignalGap, o))
    }

    fn small_budget_client(max_signaling_failures: u32) -> BicordClient {
        BicordClient::new(ClientConfig {
            policy: SignalingPolicy {
                max_packets: 2,
                ..SignalingPolicy::default()
            },
            max_signaling_failures,
            ..ClientConfig::default()
        })
    }

    #[test]
    fn unanswered_round_emits_backoff_transition() {
        let mut c = small_budget_client(3);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let actions = exhaust_round(&mut c, SimTime::from_millis(26));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 1 }));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })),
            "one failure must not trigger the fallback, got {actions:?}"
        );
        assert_eq!(c.csma_fallbacks(), 0);
    }

    #[test]
    fn k_consecutive_failures_fall_back_to_csma() {
        let mut c = small_budget_client(2);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        // Round 1 unanswered → backoff; Retry → data fails again → round 2.
        let _ = exhaust_round(&mut c, SimTime::from_millis(26));
        let _ = acts(|o| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(120), failed_access(0), o));
        let actions = exhaust_round(&mut c, SimTime::from_millis(121));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 2 }));
        assert!(actions.contains(&ClientAction::FallbackToCsma { failures: 2 }));
        assert!(
            actions.contains(&ClientAction::SetTxPower(Dbm::new(0.0))),
            "fallback must restore data power, got {actions:?}"
        );
        assert_eq!(c.csma_fallbacks(), 1);
        // From here the burst is CSMA-only: a further failure retries the
        // data after a backoff instead of signaling or re-classifying.
        let _ = acts(|o| c.on_timer(SimTime::from_millis(200), ClientTimer::Retry, o));
        let actions =
            acts(|o| c.on_mac_notification(SimTime::from_millis(220), failed_access(0), o));
        assert!(
            actions.iter().all(|a| matches!(
                a,
                ClientAction::SetTimer {
                    timer: ClientTimer::Retry,
                    ..
                }
            )),
            "CSMA-only burst must not signal, got {actions:?}"
        );
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn answered_request_resets_the_failure_count() {
        let mut c = small_budget_client(2);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 2, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        // Round 1 unanswered.
        let _ = exhaust_round(&mut c, SimTime::from_millis(26));
        // Retry → data fails → round 2, but this one is answered.
        let _ = acts(|o| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(120), failed_access(0), o));
        let _ = acts(|o| {
            c.on_mac_notification(
                SimTime::from_millis(125),
                ZigbeeNotification::ControlSent,
                o,
            )
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(127), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(130), delivered(0), o));
        // White space over; the next packet fails and round 3 goes
        // unanswered: the count must restart at 1, not reach k = 2.
        let _ = acts(|o| c.on_channel_busy(SimTime::from_millis(140), o));
        let actions = exhaust_round(&mut c, SimTime::from_millis(141));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 1 }));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })));
        assert_eq!(c.csma_fallbacks(), 0);
    }

    #[test]
    fn fallback_expires_with_the_burst() {
        let mut c = small_budget_client(1);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        // k = 1: the very first unanswered round falls back.
        let actions = exhaust_round(&mut c, SimTime::from_millis(26));
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })));
        // The lone packet finally makes it through plain CSMA.
        let _ = acts(|o| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, o));
        let actions = acts(|o| c.on_mac_notification(SimTime::from_millis(120), delivered(0), o));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 1,
            failed: 0
        }));
        // The next burst signals again (the diagnosis is still fresh):
        // degradation is per-burst, not sticky.
        let actions = acts(|o| c.on_burst(SimTime::from_millis(200), 1, 50, o));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "fallback must not outlive the burst, got {actions:?}"
        );
    }

    #[test]
    fn non_wifi_interference_skips_signaling() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let actions = acts(|o| c.on_trace(SimTime::from_millis(21), &bluetooth_trace(), o));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ClientAction::MacSendControl { .. })),
            "must not signal at Bluetooth"
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer {
                timer: ClientTimer::Retry,
                ..
            }
        )));
    }

    #[test]
    fn second_failure_in_burst_skips_classification() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 5, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(31), delivered(0), o));
        let _ = acts(|o| c.on_timer(SimTime::from_millis(35), ClientTimer::NextPacket, o));
        // White space ended; next packet fails:
        let actions =
            acts(|o| c.on_mac_notification(SimTime::from_millis(60), failed_access(1), o));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "Wi-Fi already confirmed — go straight to signaling, got {actions:?}"
        );
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn power_map_entry_used_for_known_device() {
        let mut c = client();
        // Train a trivial fingerprinter on two separated device signatures.
        let data = vec![vec![-26.0, 10.0, 2.0, 0.7], vec![-60.0, 10.0, 2.0, 0.7]];
        c.set_fingerprinter(KMeans::fit(
            &data,
            crate::cti::KMeansConfig {
                k: 2,
                iterations: 10,
                seed: 1,
                ..Default::default()
            },
        ));
        // Find which cluster a strong wifi trace maps to, and install a
        // distinctive power for it.
        let trace = wifi_trace();
        let f = extract_features(&trace, -80.0, -95.0);
        let model_clone = KMeans::fit(
            &data,
            crate::cti::KMeansConfig {
                k: 2,
                iterations: 10,
                seed: 1,
                ..Default::default()
            },
        );
        let cluster = model_clone.assign(&f.fingerprint());
        c.power_map_mut().insert(cluster, Dbm::new(-3.0));
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let actions = acts(|o| c.on_trace(SimTime::from_millis(21), &trace, o));
        assert!(
            actions.contains(&ClientAction::SetTxPower(Dbm::new(-3.0))),
            "negotiated power must be used, got {actions:?}"
        );
    }

    #[test]
    fn appending_burst_extends_pending() {
        let mut c = client();
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 2, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(3), delivered(0), o));
        // More data arrives mid-burst:
        let actions = acts(|o| c.on_burst(SimTime::from_millis(4), 2, 50, o));
        assert!(actions.is_empty(), "mid-burst arrival queues silently");
        let _ = acts(|o| c.on_timer(SimTime::from_millis(7), ClientTimer::NextPacket, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(10), delivered(1), o));
        let _ = acts(|o| c.on_timer(SimTime::from_millis(14), ClientTimer::NextPacket, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(17), delivered(2), o));
        let _ = acts(|o| c.on_timer(SimTime::from_millis(21), ClientTimer::NextPacket, o));
        let actions = acts(|o| c.on_mac_notification(SimTime::from_millis(24), delivered(3), o));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 4,
            failed: 0
        }));
    }

    #[test]
    fn fresh_diagnosis_signals_immediately_on_next_burst() {
        let mut c = client();
        // Burst 1 establishes the Wi-Fi diagnosis the slow way.
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(31), delivered(0), o));
        assert!(c.is_idle());
        // Wi-Fi resumes (white space over) before the next burst arrives.
        let _ = acts(|o| c.on_channel_busy(SimTime::from_millis(60), o));
        // Burst 2 within the diagnosis TTL: no CSMA attempt, no trace —
        // straight to signaling at the remembered power.
        let actions = acts(|o| c.on_burst(SimTime::from_millis(100), 1, 50, o));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "expected immediate signaling, got {actions:?}"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::SetTxPower(_))));
        assert!(!actions.contains(&ClientAction::CaptureTrace));
    }

    #[test]
    fn diagnosis_expires_after_ttl() {
        let cfg = ClientConfig {
            diagnosis_ttl: SimDuration::from_millis(500),
            ..ClientConfig::default()
        };
        let mut c = BicordClient::new(cfg);
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(31), delivered(0), o));
        let _ = acts(|o| c.on_channel_busy(SimTime::from_millis(60), o));
        // Next burst arrives a full second later — past the TTL: plain
        // data send first.
        let actions = acts(|o| c.on_burst(SimTime::from_millis(1_100), 1, 50, o));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }]
        );
    }

    #[test]
    fn burst_arriving_inside_white_space_sends_directly() {
        let mut c = client();
        // Establish the diagnosis, then open a white space.
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(31), delivered(0), o));
        // Channel still clear: a new burst must NOT signal into silence.
        let actions = acts(|o| c.on_burst(SimTime::from_millis(40), 1, 50, o));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }],
            "bursts inside a white space transmit directly"
        );
    }

    #[test]
    fn wifi_resume_preempts_waiting_client() {
        let mut c = client();
        // Mid-burst with the diagnosis fresh, waiting between packets.
        let _ = acts(|o| c.on_burst(SimTime::ZERO, 3, 50, o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), o));
        let _ = acts(|o| c.on_trace(SimTime::from_millis(21), &wifi_trace(), o));
        let _ = acts(|o| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, o)
        });
        let _ = acts(|o| c.on_channel_clear(SimTime::from_millis(28), o));
        let _ = acts(|o| c.on_mac_notification(SimTime::from_millis(31), delivered(0), o));
        // Now BetweenPackets; the white space ends:
        let actions = acts(|o| c.on_channel_busy(SimTime::from_millis(33), o));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "waiting client must preempt the doomed CSMA and re-signal, got {actions:?}"
        );
        assert!(actions.contains(&ClientAction::CancelTimer(ClientTimer::NextPacket)));
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut c = client();
        assert!(acts(|o| c.on_timer(SimTime::ZERO, ClientTimer::NextPacket, o)).is_empty());
        assert!(acts(|o| c.on_timer(SimTime::ZERO, ClientTimer::SignalGap, o)).is_empty());
        assert!(acts(|o| c.on_timer(SimTime::ZERO, ClientTimer::Retry, o)).is_empty());
        assert!(acts(|o| c.on_channel_clear(SimTime::ZERO, o)).is_empty());
        assert!(acts(|o| c.on_trace(SimTime::ZERO, &wifi_trace(), o)).is_empty());
    }

    /// The scenario stacks nested handler calls on one buffer, so every
    /// handler must leave what the buffer already holds untouched and
    /// append exactly what it would emit into an empty buffer.
    #[test]
    fn every_handler_appends_after_existing_actions() {
        const SENTINEL: ClientAction = ClientAction::CaptureTrace;
        type Step = fn(&mut BicordClient, SimTime, &mut Vec<ClientAction>);
        // One burst through every handler: a delivery, a failure and its
        // diagnosis, an answered signaling round, then Wi-Fi resuming.
        let steps: [(&str, u64, Step); 10] = [
            ("on_burst", 0, |c, t, o| c.on_burst(t, 3, 50, o)),
            ("on_mac_notification", 3, |c, t, o| {
                c.on_mac_notification(t, delivered(0), o)
            }),
            ("on_timer", 7, |c, t, o| {
                c.on_timer(t, ClientTimer::NextPacket, o)
            }),
            ("on_mac_notification", 20, |c, t, o| {
                c.on_mac_notification(t, failed_access(1), o)
            }),
            ("on_trace", 21, |c, t, o| c.on_trace(t, &wifi_trace(), o)),
            ("on_mac_notification", 26, |c, t, o| {
                c.on_mac_notification(t, ZigbeeNotification::ControlSent, o)
            }),
            ("on_timer", 32, |c, t, o| {
                c.on_timer(t, ClientTimer::SignalGap, o)
            }),
            ("on_channel_clear", 34, |c, t, o| c.on_channel_clear(t, o)),
            ("on_mac_notification", 37, |c, t, o| {
                c.on_mac_notification(t, delivered(1), o)
            }),
            ("on_channel_busy", 39, |c, t, o| c.on_channel_busy(t, o)),
        ];
        let (mut fresh_client, mut seeded_client) = (client(), client());
        let mut emitted = 0;
        for (name, ms, step) in steps {
            let t = SimTime::from_millis(ms);
            let mut fresh = Vec::new();
            step(&mut fresh_client, t, &mut fresh);
            let mut seeded = vec![SENTINEL];
            step(&mut seeded_client, t, &mut seeded);
            assert_eq!(seeded[0], SENTINEL, "{name} touched the existing action");
            assert_eq!(
                &seeded[1..],
                fresh.as_slice(),
                "{name} did not append in order"
            );
            emitted += fresh.len();
        }
        assert_eq!(emitted, 17, "the walk must exercise real actions");
    }
}
