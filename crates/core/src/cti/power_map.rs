//! The PowerMap: per-Wi-Fi-device signaling transmission power.
//!
//! Signaling power is a two-sided constraint (Sec. VII-A, VIII-B):
//!
//! * **high enough** that the control packet's energy registers in the CSI
//!   of the Wi-Fi *receiver* — detection probability grows with the power
//!   received there;
//! * **low enough** that it stays under the Wi-Fi *sender's* energy-
//!   detection threshold — otherwise the sender's CCA defers, no Wi-Fi
//!   frames fly, no CSI samples exist, and signaling fails (the paper's
//!   locations C and D).
//!
//! The ZigBee node negotiates one power per identified Wi-Fi device and
//! caches it here, keyed by the fingerprint cluster from
//! [`super::fingerprint::KMeans`].

use bicord_phy::units::Dbm;
use bicord_sim::event::FastMap;

/// Selects the best signaling power from `candidates`.
///
/// `loss_to_wifi_tx_db` / `loss_to_wifi_rx_db` are the estimated link
/// losses from the ZigBee node to the Wi-Fi sender and receiver;
/// `ed_threshold` is the Wi-Fi sender's energy-detection level and
/// `margin_db` the safety margin kept below it.
///
/// Returns the **highest** candidate whose power at the Wi-Fi sender stays
/// at least `margin_db` below `ed_threshold` — maximising detection at the
/// receiver subject to not silencing the sender. If every candidate trips
/// CCA, the lowest candidate is returned (the least-bad option).
///
/// # Example
///
/// ```
/// use bicord_core::cti::select_power;
/// use bicord_phy::units::Dbm;
///
/// let candidates = [Dbm::new(0.0), Dbm::new(-1.0), Dbm::new(-3.0), Dbm::new(-7.0)];
/// // Close to the Wi-Fi sender (48 dB loss): must back down to -7 dBm.
/// let p = select_power(&candidates, 48.0, 57.0, Dbm::new(-58.0), 3.0);
/// assert_eq!(p, Dbm::new(-7.0));
/// // Far from it (65 dB loss): full power is safe.
/// let p = select_power(&candidates, 65.0, 52.0, Dbm::new(-58.0), 3.0);
/// assert_eq!(p, Dbm::new(0.0));
/// ```
pub fn select_power(
    candidates: &[Dbm],
    loss_to_wifi_tx_db: f64,
    loss_to_wifi_rx_db: f64,
    ed_threshold: Dbm,
    margin_db: f64,
) -> Dbm {
    assert!(!candidates.is_empty(), "need at least one candidate power");
    let _ = loss_to_wifi_rx_db; // higher is always better at the receiver
    let mut sorted: Vec<Dbm> = candidates.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("dBm is not NaN"));
    for &p in &sorted {
        let at_sender = p - loss_to_wifi_tx_db;
        if at_sender.value() <= ed_threshold.value() - margin_db {
            return p;
        }
    }
    *sorted.last().expect("non-empty")
}

/// Negotiated signaling powers per identified Wi-Fi device.
///
/// # Example
///
/// ```
/// use bicord_core::cti::PowerMap;
/// use bicord_phy::units::Dbm;
///
/// let mut map = PowerMap::new(Dbm::new(-3.0));
/// map.insert(0, Dbm::new(0.0));
/// assert_eq!(map.power_for(0), Dbm::new(0.0));
/// assert_eq!(map.power_for(7), Dbm::new(-3.0)); // unknown → default
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMap {
    entries: FastMap<usize, Dbm>,
    default: Dbm,
}

impl PowerMap {
    /// Creates a map with a conservative default power for unknown
    /// devices.
    pub fn new(default: Dbm) -> Self {
        PowerMap {
            entries: FastMap::default(),
            default,
        }
    }

    /// Stores (or replaces) the negotiated power for a device cluster.
    pub fn insert(&mut self, device: usize, power: Dbm) {
        self.entries.insert(device, power);
    }

    /// The power to use against `device` (the default if unknown).
    pub fn power_for(&self, device: usize) -> Dbm {
        self.entries.get(&device).copied().unwrap_or(self.default)
    }

    /// `true` if a power has been negotiated for `device`.
    pub fn contains(&self, device: usize) -> bool {
        self.entries.contains_key(&device)
    }

    /// Number of negotiated entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no powers have been negotiated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Dbm> {
        vec![
            Dbm::new(0.0),
            Dbm::new(-1.0),
            Dbm::new(-3.0),
            Dbm::new(-5.0),
            Dbm::new(-7.0),
        ]
    }

    #[test]
    fn far_sender_gets_full_power() {
        // 65 dB to the Wi-Fi sender: 0 dBm arrives at -65, well below
        // -58 - 3.
        let p = select_power(&candidates(), 65.0, 50.0, Dbm::new(-58.0), 3.0);
        assert_eq!(p, Dbm::new(0.0));
    }

    #[test]
    fn near_sender_backs_down() {
        // 59 dB loss: 0 dBm → -59 (trips -61 requirement), -3 dBm → -62 ok.
        let p = select_power(&candidates(), 59.0, 50.0, Dbm::new(-58.0), 3.0);
        assert_eq!(p, Dbm::new(-3.0));
    }

    #[test]
    fn hopeless_case_returns_lowest() {
        // 40 dB loss: even -7 dBm arrives at -47 — everything trips CCA.
        let p = select_power(&candidates(), 40.0, 50.0, Dbm::new(-58.0), 3.0);
        assert_eq!(p, Dbm::new(-7.0));
    }

    #[test]
    fn margin_is_respected_exactly() {
        // 0 dBm at 61 dB loss = -61 = threshold - margin exactly: allowed.
        let p = select_power(&candidates(), 61.0, 50.0, Dbm::new(-58.0), 3.0);
        assert_eq!(p, Dbm::new(0.0));
        // One dB closer: 0 dBm is rejected, -1 dBm passes.
        let p = select_power(&candidates(), 60.0, 50.0, Dbm::new(-58.0), 3.0);
        assert_eq!(p, Dbm::new(-1.0));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_candidates_rejected() {
        let _ = select_power(&[], 60.0, 50.0, Dbm::new(-58.0), 3.0);
    }

    #[test]
    fn power_map_roundtrip() {
        let mut m = PowerMap::new(Dbm::new(-7.0));
        assert!(m.is_empty());
        m.insert(1, Dbm::new(0.0));
        m.insert(2, Dbm::new(-3.0));
        assert_eq!(m.len(), 2);
        assert!(m.contains(1));
        assert!(!m.contains(3));
        assert_eq!(m.power_for(1), Dbm::new(0.0));
        assert_eq!(m.power_for(2), Dbm::new(-3.0));
        assert_eq!(m.power_for(3), Dbm::new(-7.0));
        // Replacement:
        m.insert(1, Dbm::new(-1.0));
        assert_eq!(m.power_for(1), Dbm::new(-1.0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn paper_location_powers_reproduce() {
        // With the Fig. 6 geometry (office model, PL0 = 46 dB, n = 3):
        // location A is 4.3 m from the Wi-Fi sender (loss ≈ 65 dB) → 0 dBm;
        // location D is ~2.5 m (loss ≈ 58 dB) → must drop to -3 dBm or
        // below. The paper uses 0/0/-1/-3 dBm at A/B/C/D.
        let cands = candidates();
        let loss = |d: f64| 46.0 + 30.0 * d.log10();
        let a = select_power(&cands, loss(4.32), 52.0, Dbm::new(-58.0), 3.0);
        let b = select_power(&cands, loss(6.18), 62.0, Dbm::new(-58.0), 3.0);
        let d = select_power(&cands, loss(2.5), 57.0, Dbm::new(-58.0), 3.0);
        assert_eq!(a, Dbm::new(0.0));
        assert_eq!(b, Dbm::new(0.0));
        assert!(d.value() <= -3.0, "D must use reduced power, got {d}");
    }
}
