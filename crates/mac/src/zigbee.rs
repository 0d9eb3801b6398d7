//! IEEE 802.15.4 unslotted CSMA/CA transceiver (sans-IO state machine).
//!
//! Covers the ZigBee-side MAC behaviour the paper relies on:
//!
//! * unslotted CSMA/CA for data frames — random backoff, CCA, turnaround,
//!   transmission, ACK wait, retransmission;
//! * **channel-access failure** after `macMaxCSMABackoffs` busy CCAs — under
//!   saturated Wi-Fi this is the normal outcome and is what triggers
//!   BiCord's cross-technology signaling;
//! * **control transmissions that bypass CCA** — BiCord's signaling packets
//!   are *meant* to overlap Wi-Fi frames, so they skip carrier sensing and
//!   are not acknowledged.
//!
//! Like [`crate::wifi::WifiMac`], the machine is sans-IO: the scenario layer
//! runs its timers, evaluates CCA against the medium, decides frame
//! reception, and feeds the results back in.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use bicord_phy::airtime::{zigbee_ack_airtime, zigbee_frame_airtime, zigbee_timing};
use bicord_sim::{stream_rng, SeedDomain, SimDuration, SimTime};

use crate::frames::ZigbeeFrameKind;

/// ACK frame MPDU length re-exported for [`ZigbeeFrameKind::mpdu_bytes`].
pub const ACK_MPDU_BYTES: usize = zigbee_timing::ACK_MPDU_BYTES;

/// Timers the ZigBee machine asks the scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZigbeeTimer {
    /// Random backoff expired — time to perform CCA.
    Backoff,
    /// CCA window finished — the scenario must evaluate the channel and
    /// call [`ZigbeeMac::on_cca_result`].
    Cca,
    /// RX→TX turnaround finished — transmission starts.
    Turnaround,
    /// No ACK arrived in time.
    AckTimeout,
    /// Inter-frame spacing after a completed exchange.
    Ifs,
}

/// MAC-level outcomes reported to the caller (BiCord's client layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZigbeeNotification {
    /// Data frame `seq` was acknowledged after `attempts` transmissions.
    Delivered {
        /// Application sequence number.
        seq: u32,
        /// Number of on-air attempts used (1 = first try).
        attempts: u32,
    },
    /// Data frame `seq` was dropped.
    Failed {
        /// Application sequence number.
        seq: u32,
        /// Why the frame was dropped.
        reason: FailReason,
    },
    /// A control (signaling) packet finished transmitting.
    ControlSent,
}

/// Why a data frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// `macMaxFrameRetries` transmissions went unacknowledged.
    ExceededRetries,
    /// CCA found the channel busy `macMaxCSMABackoffs + 1` times — the
    /// signature of saturated cross-technology interference.
    ChannelAccessFailure,
}

/// Instructions emitted by the machine for the scenario to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZigbeeAction {
    /// Put a frame on the air for `airtime`; call
    /// [`ZigbeeMac::on_tx_end`] when it completes.
    StartTx {
        /// The frame to transmit.
        kind: ZigbeeFrameKind,
        /// Its on-air duration.
        airtime: SimDuration,
    },
    /// (Re)arm a timer (one per kind).
    SetTimer {
        /// Which timer.
        timer: ZigbeeTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm a timer.
    CancelTimer(ZigbeeTimer),
    /// Report a MAC-level outcome to the client layer.
    Notify(ZigbeeNotification),
}

/// CSMA/CA parameters (IEEE 802.15.4 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZigbeeConfig {
    /// macMinBE.
    pub min_be: u32,
    /// macMaxBE.
    pub max_be: u32,
    /// macMaxCSMABackoffs.
    pub max_csma_backoffs: u32,
    /// macMaxFrameRetries.
    pub max_frame_retries: u32,
    /// Inter-frame spacing after a completed exchange (LIFS).
    pub ifs: SimDuration,
}

impl Default for ZigbeeConfig {
    fn default() -> Self {
        ZigbeeConfig {
            min_be: zigbee_timing::MIN_BE,
            max_be: zigbee_timing::MAX_BE,
            max_csma_backoffs: zigbee_timing::MAX_CSMA_BACKOFFS,
            max_frame_retries: zigbee_timing::MAX_FRAME_RETRIES,
            ifs: SimDuration::from_micros(640),
        }
    }
}

/// A queued data frame.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DataSpec {
    seq: u32,
    mpdu_bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Backoff { nb: u32, be: u32 },
    Cca { nb: u32, be: u32 },
    TurnaroundData,
    TurnaroundControl { mpdu_bytes: usize },
    Transmitting { kind: ZigbeeFrameKind },
    AwaitAck { seq: u32 },
    Ifs,
}

/// The 802.15.4 sender state machine.
///
/// Every handler appends its actions to a caller-owned buffer and never
/// touches what the buffer already holds, so a driver reuses one buffer
/// across calls.
///
/// # Example
///
/// ```
/// use bicord_mac::zigbee::{ZigbeeAction, ZigbeeMac, ZigbeeTimer};
/// use bicord_sim::SimTime;
///
/// let mut mac = ZigbeeMac::with_defaults(42, 0);
/// let mut actions = Vec::new();
/// mac.send_data(SimTime::ZERO, 0, 50, &mut actions);
/// // CSMA/CA starts with a random backoff:
/// assert!(matches!(
///     actions.as_slice(),
///     [ZigbeeAction::SetTimer { timer: ZigbeeTimer::Backoff, .. }]
/// ));
/// ```
pub struct ZigbeeMac {
    config: ZigbeeConfig,
    queue: VecDeque<DataSpec>,
    pending_control: VecDeque<usize>,
    retries: u32,
    phase: Phase,
    rng: StdRng,
    data_sent: u64,
    control_sent: u64,
}

impl ZigbeeMac {
    /// Creates a machine with explicit CSMA parameters.
    pub fn new(config: ZigbeeConfig, master_seed: u64, instance: u64) -> Self {
        ZigbeeMac {
            config,
            queue: VecDeque::new(),
            pending_control: VecDeque::new(),
            retries: 0,
            phase: Phase::Idle,
            rng: stream_rng(master_seed, SeedDomain::ZigbeeMac, instance),
            data_sent: 0,
            control_sent: 0,
        }
    }

    /// Creates a machine with IEEE 802.15.4 default parameters.
    pub fn with_defaults(master_seed: u64, instance: u64) -> Self {
        ZigbeeMac::new(ZigbeeConfig::default(), master_seed, instance)
    }

    /// `true` while a frame is on the air.
    pub fn is_transmitting(&self) -> bool {
        matches!(self.phase, Phase::Transmitting { .. })
    }

    /// `true` if the machine has nothing queued and is in its idle phase.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
            && self.queue.is_empty()
            && self.pending_control.is_empty()
    }

    /// Queued data frames not yet resolved.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total data-frame transmissions (including retransmissions).
    pub fn data_transmissions(&self) -> u64 {
        self.data_sent
    }

    /// Total control packets transmitted.
    pub fn control_transmissions(&self) -> u64 {
        self.control_sent
    }

    /// Queues a data frame for CSMA/CA transmission with ACK.
    pub fn send_data(
        &mut self,
        now: SimTime,
        seq: u32,
        mpdu_bytes: usize,
        out: &mut Vec<ZigbeeAction>,
    ) {
        self.queue.push_back(DataSpec { seq, mpdu_bytes });
        self.try_start(now, out);
    }

    /// Queues a BiCord control packet: transmitted without CCA and without
    /// ACK, at the front of the line.
    pub fn send_control(&mut self, now: SimTime, mpdu_bytes: usize, out: &mut Vec<ZigbeeAction>) {
        self.pending_control.push_back(mpdu_bytes);
        self.try_start(now, out);
    }

    /// Drops all queued traffic and aborts any pending channel access.
    ///
    /// In-flight transmissions finish on the air (the scenario still calls
    /// [`ZigbeeMac::on_tx_end`]); everything else is cancelled. Queued data
    /// frames are reported as failed with [`FailReason::ChannelAccessFailure`].
    pub fn flush(&mut self, _now: SimTime, out: &mut Vec<ZigbeeAction>) {
        match self.phase {
            Phase::Backoff { .. } => out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::Backoff)),
            Phase::Cca { .. } => out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::Cca)),
            Phase::TurnaroundData | Phase::TurnaroundControl { .. } => {
                out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::Turnaround))
            }
            Phase::AwaitAck { .. } => out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::AckTimeout)),
            Phase::Ifs => out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::Ifs)),
            Phase::Idle | Phase::Transmitting { .. } => {}
        }
        for spec in self.queue.drain(..) {
            out.push(ZigbeeAction::Notify(ZigbeeNotification::Failed {
                seq: spec.seq,
                reason: FailReason::ChannelAccessFailure,
            }));
        }
        self.pending_control.clear();
        self.retries = 0;
        if !self.is_transmitting() {
            self.phase = Phase::Idle;
        }
    }

    /// Handles an expired timer.
    pub fn on_timer(&mut self, now: SimTime, timer: ZigbeeTimer, out: &mut Vec<ZigbeeAction>) {
        match (timer, self.phase) {
            (ZigbeeTimer::Backoff, Phase::Backoff { nb, be }) => {
                self.phase = Phase::Cca { nb, be };
                out.push(ZigbeeAction::SetTimer {
                    timer: ZigbeeTimer::Cca,
                    at: now + zigbee_timing::CCA,
                });
            }
            (ZigbeeTimer::Turnaround, Phase::TurnaroundData) => {
                let spec = *self.queue.front().expect("turnaround without frame");
                let kind = ZigbeeFrameKind::Data {
                    mpdu_bytes: spec.mpdu_bytes,
                    seq: spec.seq,
                };
                self.phase = Phase::Transmitting { kind };
                self.data_sent += 1;
                out.push(ZigbeeAction::StartTx {
                    kind,
                    airtime: zigbee_frame_airtime(spec.mpdu_bytes),
                });
            }
            (ZigbeeTimer::Turnaround, Phase::TurnaroundControl { mpdu_bytes }) => {
                let kind = ZigbeeFrameKind::Control { mpdu_bytes };
                self.phase = Phase::Transmitting { kind };
                self.control_sent += 1;
                out.push(ZigbeeAction::StartTx {
                    kind,
                    airtime: zigbee_frame_airtime(mpdu_bytes),
                });
            }
            (ZigbeeTimer::AckTimeout, Phase::AwaitAck { seq }) => {
                self.retries += 1;
                if self.retries > self.config.max_frame_retries {
                    self.queue.pop_front();
                    self.retries = 0;
                    out.push(ZigbeeAction::Notify(ZigbeeNotification::Failed {
                        seq,
                        reason: FailReason::ExceededRetries,
                    }));
                    self.enter_ifs(now, out);
                } else {
                    // Retransmission restarts CSMA/CA from scratch.
                    self.begin_csma(now, out);
                }
            }
            (ZigbeeTimer::Ifs, Phase::Ifs) => {
                self.phase = Phase::Idle;
                self.try_start(now, out);
            }
            // Stale timers (cancelled logically but already popped) are
            // ignored.
            _ => {}
        }
    }

    /// Reports the CCA verdict requested by a [`ZigbeeTimer::Cca`] expiry.
    pub fn on_cca_result(&mut self, now: SimTime, busy: bool, out: &mut Vec<ZigbeeAction>) {
        let Phase::Cca { nb, be } = self.phase else {
            return;
        };
        if !busy {
            self.phase = Phase::TurnaroundData;
            out.push(ZigbeeAction::SetTimer {
                timer: ZigbeeTimer::Turnaround,
                at: now + zigbee_timing::TURNAROUND,
            });
            return;
        }
        let nb = nb + 1;
        let be = (be + 1).min(self.config.max_be);
        if nb > self.config.max_csma_backoffs {
            let spec = self.queue.pop_front().expect("cca without frame");
            self.retries = 0;
            out.push(ZigbeeAction::Notify(ZigbeeNotification::Failed {
                seq: spec.seq,
                reason: FailReason::ChannelAccessFailure,
            }));
            self.phase = Phase::Idle;
            self.try_start(now, out);
        } else {
            self.phase = Phase::Backoff { nb, be };
            out.push(ZigbeeAction::SetTimer {
                timer: ZigbeeTimer::Backoff,
                at: now + self.draw_backoff(be),
            });
        }
    }

    /// Notifies the machine that its own transmission finished.
    ///
    /// Returns the frame kind that completed; follow-up actions are
    /// appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the machine was not transmitting.
    pub fn on_tx_end(&mut self, now: SimTime, out: &mut Vec<ZigbeeAction>) -> ZigbeeFrameKind {
        let kind = match self.phase {
            Phase::Transmitting { kind } => kind,
            other => panic!("on_tx_end in phase {other:?}"),
        };
        match kind {
            ZigbeeFrameKind::Data { seq, .. } => {
                self.phase = Phase::AwaitAck { seq };
                out.push(ZigbeeAction::SetTimer {
                    timer: ZigbeeTimer::AckTimeout,
                    at: now + zigbee_timing::ACK_WAIT,
                });
            }
            ZigbeeFrameKind::Control { .. } => {
                out.push(ZigbeeAction::Notify(ZigbeeNotification::ControlSent));
                self.phase = Phase::Idle;
                self.try_start(now, out);
            }
            ZigbeeFrameKind::Ack { .. } => {
                // Senders do not emit ACKs; receivers use ZigbeeReceiver.
                self.phase = Phase::Idle;
            }
        }
        kind
    }

    /// Delivers an ACK heard from the receiver.
    pub fn on_ack_received(&mut self, now: SimTime, seq: u32, out: &mut Vec<ZigbeeAction>) {
        let Phase::AwaitAck { seq: expected } = self.phase else {
            return;
        };
        if seq != expected {
            return;
        }
        out.push(ZigbeeAction::CancelTimer(ZigbeeTimer::AckTimeout));
        let attempts = self.retries + 1;
        self.retries = 0;
        self.queue.pop_front();
        out.push(ZigbeeAction::Notify(ZigbeeNotification::Delivered {
            seq,
            attempts,
        }));
        self.enter_ifs(now, out);
    }

    fn enter_ifs(&mut self, now: SimTime, actions: &mut Vec<ZigbeeAction>) {
        self.phase = Phase::Ifs;
        actions.push(ZigbeeAction::SetTimer {
            timer: ZigbeeTimer::Ifs,
            at: now + self.config.ifs,
        });
    }

    fn try_start(&mut self, now: SimTime, actions: &mut Vec<ZigbeeAction>) {
        if !matches!(self.phase, Phase::Idle) {
            return;
        }
        if let Some(mpdu_bytes) = self.pending_control.pop_front() {
            self.phase = Phase::TurnaroundControl { mpdu_bytes };
            actions.push(ZigbeeAction::SetTimer {
                timer: ZigbeeTimer::Turnaround,
                at: now + zigbee_timing::TURNAROUND,
            });
            return;
        }
        if !self.queue.is_empty() {
            self.begin_csma(now, actions);
        }
    }

    fn begin_csma(&mut self, now: SimTime, actions: &mut Vec<ZigbeeAction>) {
        let be = self.config.min_be;
        self.phase = Phase::Backoff { nb: 0, be };
        actions.push(ZigbeeAction::SetTimer {
            timer: ZigbeeTimer::Backoff,
            at: now + self.draw_backoff(be),
        });
    }

    fn draw_backoff(&mut self, be: u32) -> SimDuration {
        let max_units = (1u64 << be) - 1;
        let units = self.rng.gen_range(0..=max_units);
        zigbee_timing::UNIT_BACKOFF * units
    }
}

impl std::fmt::Debug for ZigbeeMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZigbeeMac")
            .field("phase", &self.phase)
            .field("queue", &self.queue.len())
            .field("pending_control", &self.pending_control.len())
            .finish()
    }
}

/// The receiver side: replies to successfully decoded data frames with an
/// ACK after the RX→TX turnaround.
#[derive(Debug, Default)]
pub struct ZigbeeReceiver {
    pending_ack: Option<u32>,
    frames_received: u64,
}

impl ZigbeeReceiver {
    /// Creates a receiver.
    pub fn new() -> Self {
        ZigbeeReceiver::default()
    }

    /// Count of successfully received data frames.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Called by the scenario when a data frame was successfully decoded.
    pub fn on_data_received(&mut self, now: SimTime, seq: u32, out: &mut Vec<ZigbeeAction>) {
        self.frames_received += 1;
        self.pending_ack = Some(seq);
        out.push(ZigbeeAction::SetTimer {
            timer: ZigbeeTimer::Turnaround,
            at: now + zigbee_timing::TURNAROUND,
        });
    }

    /// Handles the turnaround timer: sends the pending ACK.
    pub fn on_timer(&mut self, _now: SimTime, timer: ZigbeeTimer, out: &mut Vec<ZigbeeAction>) {
        if timer != ZigbeeTimer::Turnaround {
            return;
        }
        let Some(seq) = self.pending_ack.take() else {
            return;
        };
        out.push(ZigbeeAction::StartTx {
            kind: ZigbeeFrameKind::Ack { seq },
            airtime: zigbee_ack_airtime(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects one handler call's actions into a fresh buffer.
    fn acts(f: impl FnOnce(&mut Vec<ZigbeeAction>)) -> Vec<ZigbeeAction> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    /// Ends the machine's transmission: the completed kind plus its
    /// follow-up actions.
    fn end_tx(m: &mut ZigbeeMac, now: SimTime) -> (ZigbeeFrameKind, Vec<ZigbeeAction>) {
        let mut out = Vec::new();
        let kind = m.on_tx_end(now, &mut out);
        (kind, out)
    }

    fn timer_at(actions: &[ZigbeeAction], timer: ZigbeeTimer) -> SimTime {
        actions
            .iter()
            .find_map(|a| match a {
                ZigbeeAction::SetTimer { timer: t, at } if *t == timer => Some(*at),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no SetTimer({timer:?}) in {actions:?}"))
    }

    fn started_tx(actions: &[ZigbeeAction]) -> Option<ZigbeeFrameKind> {
        actions.iter().find_map(|a| match a {
            ZigbeeAction::StartTx { kind, .. } => Some(*kind),
            _ => None,
        })
    }

    fn notifications(actions: &[ZigbeeAction]) -> Vec<ZigbeeNotification> {
        actions
            .iter()
            .filter_map(|a| match a {
                ZigbeeAction::Notify(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// Runs the happy path up to the data frame being on air; returns the
    /// time the transmission started.
    fn drive_to_data_tx(mac: &mut ZigbeeMac, start: SimTime) -> SimTime {
        let actions = acts(|o| mac.send_data(start, 0, 50, o));
        let backoff_at = timer_at(&actions, ZigbeeTimer::Backoff);
        let actions = acts(|o| mac.on_timer(backoff_at, ZigbeeTimer::Backoff, o));
        let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
        let actions = acts(|o| mac.on_cca_result(cca_at, false, o));
        let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
        let actions = acts(|o| mac.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
        assert!(matches!(
            started_tx(&actions),
            Some(ZigbeeFrameKind::Data {
                mpdu_bytes: 50,
                seq: 0
            })
        ));
        turn_at
    }

    #[test]
    fn clean_channel_exchange_delivers() {
        let mut m = ZigbeeMac::with_defaults(1, 0);
        let tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        let tx_end = tx_at + zigbee_frame_airtime(50);
        let (kind, actions) = end_tx(&mut m, tx_end);
        assert!(matches!(kind, ZigbeeFrameKind::Data { .. }));
        let _ack_deadline = timer_at(&actions, ZigbeeTimer::AckTimeout);
        let actions = acts(|o| m.on_ack_received(tx_end + SimDuration::from_micros(544), 0, o));
        assert_eq!(
            notifications(&actions),
            vec![ZigbeeNotification::Delivered {
                seq: 0,
                attempts: 1
            }]
        );
        assert_eq!(m.queue_len(), 0);
        // IFS then idle:
        let ifs_at = timer_at(&actions, ZigbeeTimer::Ifs);
        let _ = acts(|o| m.on_timer(ifs_at, ZigbeeTimer::Ifs, o));
        assert!(m.is_idle());
    }

    #[test]
    fn busy_cca_backs_off_with_growing_be() {
        let mut m = ZigbeeMac::with_defaults(2, 0);
        let actions = acts(|o| m.send_data(SimTime::ZERO, 0, 50, o));
        let mut at = timer_at(&actions, ZigbeeTimer::Backoff);
        // First backoff must fit within (2^3 - 1) unit periods.
        assert!(at <= SimTime::ZERO + zigbee_timing::UNIT_BACKOFF * 7);
        for _ in 0..zigbee_timing::MAX_CSMA_BACKOFFS {
            let actions = acts(|o| m.on_timer(at, ZigbeeTimer::Backoff, o));
            let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
            let actions = acts(|o| m.on_cca_result(cca_at, true, o));
            at = timer_at(&actions, ZigbeeTimer::Backoff);
        }
        // The (max_csma_backoffs + 1)-th busy CCA fails the frame.
        let actions = acts(|o| m.on_timer(at, ZigbeeTimer::Backoff, o));
        let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
        let actions = acts(|o| m.on_cca_result(cca_at, true, o));
        assert_eq!(
            notifications(&actions),
            vec![ZigbeeNotification::Failed {
                seq: 0,
                reason: FailReason::ChannelAccessFailure
            }]
        );
        assert!(m.is_idle());
    }

    #[test]
    fn ack_timeout_retransmits_then_gives_up() {
        let mut m = ZigbeeMac::with_defaults(3, 0);
        let mut tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        for attempt in 0..=zigbee_timing::MAX_FRAME_RETRIES {
            let tx_end = tx_at + zigbee_frame_airtime(50);
            let (_, actions) = end_tx(&mut m, tx_end);
            let deadline = timer_at(&actions, ZigbeeTimer::AckTimeout);
            let actions = acts(|o| m.on_timer(deadline, ZigbeeTimer::AckTimeout, o));
            if attempt == zigbee_timing::MAX_FRAME_RETRIES {
                assert_eq!(
                    notifications(&actions),
                    vec![ZigbeeNotification::Failed {
                        seq: 0,
                        reason: FailReason::ExceededRetries
                    }]
                );
                return;
            }
            // Retransmission: full CSMA again.
            let backoff_at = timer_at(&actions, ZigbeeTimer::Backoff);
            let actions = acts(|o| m.on_timer(backoff_at, ZigbeeTimer::Backoff, o));
            let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
            let actions = acts(|o| m.on_cca_result(cca_at, false, o));
            tx_at = timer_at(&actions, ZigbeeTimer::Turnaround);
            let actions = acts(|o| m.on_timer(tx_at, ZigbeeTimer::Turnaround, o));
            assert!(started_tx(&actions).is_some());
        }
    }

    #[test]
    fn delivered_attempts_counts_retransmissions() {
        let mut m = ZigbeeMac::with_defaults(4, 0);
        let tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        let tx_end = tx_at + zigbee_frame_airtime(50);
        let (_, actions) = end_tx(&mut m, tx_end);
        let deadline = timer_at(&actions, ZigbeeTimer::AckTimeout);
        // First attempt times out:
        let actions = acts(|o| m.on_timer(deadline, ZigbeeTimer::AckTimeout, o));
        let backoff_at = timer_at(&actions, ZigbeeTimer::Backoff);
        let actions = acts(|o| m.on_timer(backoff_at, ZigbeeTimer::Backoff, o));
        let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
        let actions = acts(|o| m.on_cca_result(cca_at, false, o));
        let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
        let _ = acts(|o| m.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
        let tx_end2 = turn_at + zigbee_frame_airtime(50);
        let (_, _) = end_tx(&mut m, tx_end2);
        let actions = acts(|o| m.on_ack_received(tx_end2 + SimDuration::from_micros(500), 0, o));
        assert_eq!(
            notifications(&actions),
            vec![ZigbeeNotification::Delivered {
                seq: 0,
                attempts: 2
            }]
        );
    }

    #[test]
    fn control_packets_skip_cca_and_ack() {
        let mut m = ZigbeeMac::with_defaults(5, 0);
        let actions = acts(|o| m.send_control(SimTime::ZERO, 120, o));
        // Straight to turnaround — no backoff, no CCA.
        let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
        assert_eq!(turn_at, SimTime::ZERO + zigbee_timing::TURNAROUND);
        let actions = acts(|o| m.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
        assert!(matches!(
            started_tx(&actions),
            Some(ZigbeeFrameKind::Control { mpdu_bytes: 120 })
        ));
        let (_, actions) = end_tx(&mut m, turn_at + zigbee_frame_airtime(120));
        assert_eq!(
            notifications(&actions),
            vec![ZigbeeNotification::ControlSent]
        );
        assert!(m.is_idle());
        assert_eq!(m.control_transmissions(), 1);
    }

    #[test]
    fn control_takes_priority_over_data() {
        let mut m = ZigbeeMac::with_defaults(6, 0);
        // While idle, enqueue data first, then a control packet before any
        // timers run — control still goes out first once the current CSMA
        // attempt is aborted... data already started CSMA, so let the
        // backoff lapse, CCA-busy it, and observe the control is next.
        let actions = acts(|o| m.send_data(SimTime::ZERO, 0, 50, o));
        let _ = acts(|o| m.send_control(SimTime::from_micros(10), 120, o));
        let backoff_at = timer_at(&actions, ZigbeeTimer::Backoff);
        let actions = acts(|o| m.on_timer(backoff_at, ZigbeeTimer::Backoff, o));
        let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
        // Channel busy 5 times → data fails, control starts next.
        let mut actions = acts(|o| m.on_cca_result(cca_at, true, o));
        for _ in 0..zigbee_timing::MAX_CSMA_BACKOFFS {
            let b = timer_at(&actions, ZigbeeTimer::Backoff);
            let a2 = acts(|o| m.on_timer(b, ZigbeeTimer::Backoff, o));
            let c = timer_at(&a2, ZigbeeTimer::Cca);
            actions = acts(|o| m.on_cca_result(c, true, o));
        }
        assert!(notifications(&actions).iter().any(|n| matches!(
            n,
            ZigbeeNotification::Failed {
                reason: FailReason::ChannelAccessFailure,
                ..
            }
        )));
        // Control turnaround armed:
        let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
        let actions = acts(|o| m.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
        assert!(matches!(
            started_tx(&actions),
            Some(ZigbeeFrameKind::Control { .. })
        ));
    }

    #[test]
    fn flush_fails_queued_frames_and_cancels_timers() {
        let mut m = ZigbeeMac::with_defaults(7, 0);
        let _ = acts(|o| m.send_data(SimTime::ZERO, 0, 50, o));
        let _ = acts(|o| m.send_data(SimTime::ZERO, 1, 50, o));
        let actions = acts(|o| m.flush(SimTime::from_micros(100), o));
        assert!(actions.contains(&ZigbeeAction::CancelTimer(ZigbeeTimer::Backoff)));
        let n = notifications(&actions);
        assert_eq!(n.len(), 2);
        assert!(m.is_idle());
    }

    #[test]
    fn mismatched_ack_is_ignored() {
        let mut m = ZigbeeMac::with_defaults(8, 0);
        let tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        let (_, _) = end_tx(&mut m, tx_at + zigbee_frame_airtime(50));
        let actions = acts(|o| m.on_ack_received(tx_at + SimDuration::from_millis(2), 99, o));
        assert!(actions.is_empty());
        assert_eq!(m.queue_len(), 1, "frame must remain pending");
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut m = ZigbeeMac::with_defaults(9, 0);
        assert!(acts(|o| m.on_timer(SimTime::ZERO, ZigbeeTimer::AckTimeout, o)).is_empty());
        assert!(acts(|o| m.on_timer(SimTime::ZERO, ZigbeeTimer::Cca, o)).is_empty());
        assert!(acts(|o| m.on_cca_result(SimTime::ZERO, true, o)).is_empty());
        assert!(acts(|o| m.on_ack_received(SimTime::ZERO, 0, o)).is_empty());
    }

    #[test]
    fn receiver_acks_after_turnaround() {
        let mut r = ZigbeeReceiver::new();
        let actions = acts(|o| r.on_data_received(SimTime::from_millis(1), 7, o));
        let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
        assert_eq!(turn_at, SimTime::from_millis(1) + zigbee_timing::TURNAROUND);
        let actions = acts(|o| r.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
        assert!(matches!(
            started_tx(&actions),
            Some(ZigbeeFrameKind::Ack { seq: 7 })
        ));
        assert_eq!(r.frames_received(), 1);
        // Spurious timer without pending ACK:
        assert!(
            acts(|o| r.on_timer(SimTime::from_millis(9), ZigbeeTimer::Turnaround, o)).is_empty()
        );
    }

    #[test]
    fn control_queued_while_transmitting_waits_for_tx_end() {
        let mut m = ZigbeeMac::with_defaults(11, 0);
        let tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        // A control request arrives mid-transmission:
        let actions = acts(|o| m.send_control(tx_at + SimDuration::from_micros(100), 120, o));
        assert!(
            started_tx(&actions).is_none(),
            "cannot start while on air: {actions:?}"
        );
        // The in-flight data frame completes, then waits for its ACK; the
        // ACK times out and retries are exhausted...
        let mut now = tx_at + zigbee_frame_airtime(50);
        for _ in 0..=zigbee_timing::MAX_FRAME_RETRIES {
            let (_, actions) = end_tx(&mut m, now);
            let deadline = timer_at(&actions, ZigbeeTimer::AckTimeout);
            let actions = acts(|o| m.on_timer(deadline, ZigbeeTimer::AckTimeout, o));
            if notifications(&actions)
                .iter()
                .any(|n| matches!(n, ZigbeeNotification::Failed { .. }))
            {
                // ... after which (IFS, then turnaround) the control packet
                // finally goes out.
                let ifs_at = timer_at(&actions, ZigbeeTimer::Ifs);
                let actions = acts(|o| m.on_timer(ifs_at, ZigbeeTimer::Ifs, o));
                let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
                let actions = acts(|o| m.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
                assert!(matches!(
                    started_tx(&actions),
                    Some(ZigbeeFrameKind::Control { .. })
                ));
                return;
            }
            let backoff_at = timer_at(&actions, ZigbeeTimer::Backoff);
            let a2 = acts(|o| m.on_timer(backoff_at, ZigbeeTimer::Backoff, o));
            let cca_at = timer_at(&a2, ZigbeeTimer::Cca);
            let a3 = acts(|o| m.on_cca_result(cca_at, false, o));
            now = timer_at(&a3, ZigbeeTimer::Turnaround);
            let _ = acts(|o| m.on_timer(now, ZigbeeTimer::Turnaround, o));
            now += zigbee_frame_airtime(50);
        }
        panic!("frame never exhausted its retries");
    }

    #[test]
    fn flush_during_await_ack_keeps_in_flight_frame_on_air() {
        let mut m = ZigbeeMac::with_defaults(12, 0);
        let tx_at = drive_to_data_tx(&mut m, SimTime::ZERO);
        let tx_end = tx_at + zigbee_frame_airtime(50);
        let (_, _) = end_tx(&mut m, tx_end);
        // Flush while awaiting the ACK: the queued copy fails, timers are
        // cancelled, and the machine is idle afterwards.
        let actions = acts(|o| m.flush(tx_end + SimDuration::from_micros(100), o));
        assert!(actions.contains(&ZigbeeAction::CancelTimer(ZigbeeTimer::AckTimeout)));
        assert_eq!(notifications(&actions).len(), 1);
        assert!(m.is_idle());
        // A late ACK for the flushed frame is ignored.
        assert!(acts(|o| m.on_ack_received(tx_end + SimDuration::from_millis(1), 0, o)).is_empty());
    }

    #[test]
    fn queue_drains_in_fifo_order_across_exchanges() {
        let mut m = ZigbeeMac::with_defaults(13, 0);
        let _ = acts(|o| m.send_data(SimTime::ZERO, 0, 50, o));
        let _ = acts(|o| m.send_data(SimTime::ZERO, 1, 50, o));
        let _ = acts(|o| m.send_data(SimTime::ZERO, 2, 50, o));
        let mut now = SimTime::ZERO;
        for expect_seq in 0..3u32 {
            // Walk one full successful exchange.
            // (First packet's backoff was armed by send_data; later ones by
            // the IFS expiry.)
            let actions = if expect_seq == 0 {
                acts(|o| {
                    m.on_timer(
                        now + zigbee_timing::UNIT_BACKOFF * 8,
                        ZigbeeTimer::Backoff,
                        o,
                    )
                })
            } else {
                acts(|o| m.on_timer(now, ZigbeeTimer::Backoff, o))
            };
            let cca_at = timer_at(&actions, ZigbeeTimer::Cca);
            let actions = acts(|o| m.on_cca_result(cca_at, false, o));
            let turn_at = timer_at(&actions, ZigbeeTimer::Turnaround);
            let actions = acts(|o| m.on_timer(turn_at, ZigbeeTimer::Turnaround, o));
            match started_tx(&actions) {
                Some(ZigbeeFrameKind::Data { seq, .. }) => assert_eq!(seq, expect_seq),
                other => panic!("expected data frame, got {other:?}"),
            }
            let tx_end = turn_at + zigbee_frame_airtime(50);
            let (_, _) = end_tx(&mut m, tx_end);
            let actions =
                acts(|o| m.on_ack_received(tx_end + SimDuration::from_micros(500), expect_seq, o));
            let ifs_at = timer_at(&actions, ZigbeeTimer::Ifs);
            let actions = acts(|o| m.on_timer(ifs_at, ZigbeeTimer::Ifs, o));
            if expect_seq < 2 {
                now = timer_at(&actions, ZigbeeTimer::Backoff);
            }
        }
        assert!(m.is_idle());
        assert_eq!(m.data_transmissions(), 3);
    }

    #[test]
    fn backoff_durations_respect_be_window() {
        let mut m = ZigbeeMac::with_defaults(10, 0);
        for _ in 0..200 {
            let d = m.draw_backoff(3);
            assert!(d <= zigbee_timing::UNIT_BACKOFF * 7);
            let d = m.draw_backoff(5);
            assert!(d <= zigbee_timing::UNIT_BACKOFF * 31);
        }
    }

    /// The scenario stacks nested handler calls on one buffer, so every
    /// handler must leave what the buffer already holds untouched and
    /// append exactly what it would emit into an empty buffer.
    #[test]
    fn every_handler_appends_after_existing_actions() {
        const SENTINEL: ZigbeeAction = ZigbeeAction::CancelTimer(ZigbeeTimer::Ifs);
        type Step = fn(&mut ZigbeeMac, &mut ZigbeeReceiver, SimTime, &mut Vec<ZigbeeAction>);
        // Timers fire by phase, not by instant, so this walk through
        // every handler works for any backoff draw: a control packet, a
        // delivered data frame, then a busy CCA and a flush; finally the
        // receiver's ACK.
        let steps: [(&str, Step); 16] = [
            ("send_control", |m, _, t, o| m.send_control(t, 120, o)),
            ("send_data", |m, _, t, o| m.send_data(t, 0, 50, o)),
            ("on_timer", |m, _, t, o| {
                m.on_timer(t, ZigbeeTimer::Turnaround, o)
            }),
            ("on_tx_end", |m, _, t, o| {
                m.on_tx_end(t, o);
            }),
            ("on_timer", |m, _, t, o| {
                m.on_timer(t, ZigbeeTimer::Backoff, o)
            }),
            ("on_cca_result", |m, _, t, o| m.on_cca_result(t, false, o)),
            ("on_timer", |m, _, t, o| {
                m.on_timer(t, ZigbeeTimer::Turnaround, o)
            }),
            ("on_tx_end", |m, _, t, o| {
                m.on_tx_end(t, o);
            }),
            ("on_ack_received", |m, _, t, o| m.on_ack_received(t, 0, o)),
            ("on_timer", |m, _, t, o| m.on_timer(t, ZigbeeTimer::Ifs, o)),
            ("send_data", |m, _, t, o| m.send_data(t, 1, 50, o)),
            ("on_timer", |m, _, t, o| {
                m.on_timer(t, ZigbeeTimer::Backoff, o)
            }),
            ("on_cca_result", |m, _, t, o| m.on_cca_result(t, true, o)),
            ("flush", |m, _, t, o| m.flush(t, o)),
            ("on_data_received", |_, r, t, o| r.on_data_received(t, 7, o)),
            ("receiver on_timer", |_, r, t, o| {
                r.on_timer(t, ZigbeeTimer::Turnaround, o)
            }),
        ];
        let mut fresh_pair = (ZigbeeMac::with_defaults(14, 0), ZigbeeReceiver::new());
        let mut seeded_pair = (ZigbeeMac::with_defaults(14, 0), ZigbeeReceiver::new());
        let mut emitted = 0;
        for (i, (name, step)) in steps.into_iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            let mut fresh = Vec::new();
            step(&mut fresh_pair.0, &mut fresh_pair.1, t, &mut fresh);
            let mut seeded = vec![SENTINEL];
            step(&mut seeded_pair.0, &mut seeded_pair.1, t, &mut seeded);
            assert_eq!(seeded[0], SENTINEL, "{name} touched the existing action");
            assert_eq!(
                &seeded[1..],
                fresh.as_slice(),
                "{name} did not append in order"
            );
            emitted += fresh.len();
        }
        assert_eq!(emitted, 18, "the walk must exercise real actions");
    }
}
