//! A stable, timestamped event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(time, sequence)`. The sequence
//! number makes ordering *stable*: two events scheduled for the same instant
//! pop in the order they were pushed, which keeps simulations deterministic
//! regardless of heap internals.
//!
//! The queue sits on the simulation's hottest path (every frame, timer and
//! sample passes through it), so the implementation avoids the obvious
//! overheads: the heap key is a single packed `u128` compare instead of a
//! two-field lexicographic compare, the live-event set hashes its dense
//! `u64` sequence numbers with a one-multiply mixer instead of SipHash, and
//! [`EventQueue::with_capacity`] / [`EventQueue::reserve`] let callers
//! pre-size both structures.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Handles are unique per [`EventQueue`] instance and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(u64);

/// One-multiply hasher for the dense `u64` sequence numbers in the pending
/// set. SplitMix64-style finalization: fast, and sequential keys spread
/// across the whole output range (std's SipHash costs ~10× as much per
/// lookup for zero benefit against non-adversarial keys).
#[derive(Debug, Default, Clone)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for derived Hash impls over odd-sized fields; fold
        // bytes in.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 31);
    }
}

/// A `HashMap` hashed with [`SeqHasher`]: the hash is the same in every
/// process (std's `RandomState` keys differ per instance), so a map that is
/// never iterated leaks no order and allocates identically run to run. Keys
/// are small ids, never adversarial.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<SeqHasher>>;

type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

struct Entry<E> {
    /// `(time << 64) | seq` — one `u128` compare orders by time with FIFO
    /// tie-break, replacing the two-branch lexicographic compare.
    key: u128,
    event: E,
}

#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_micros()) << 64) | u128::from(seq)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[inline]
fn unpack_seq(key: u128) -> u64 {
    key as u64
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic priority queue of timestamped events.
///
/// # Example
///
/// ```
/// use bicord_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), 'b');
/// q.push(SimTime::from_millis(1), 'a');
/// let h = q.push(SimTime::from_millis(3), 'c');
/// q.cancel(h);
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), 'b')));
/// assert_eq!(q.pop(), None); // 'c' was cancelled
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Sequence numbers of events that are scheduled and not yet popped or
    /// cancelled. Cancelled entries are dropped lazily at the heap head.
    pending: SeqSet,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pending: SeqSet::default(),
        }
    }

    /// Creates an empty queue pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            pending: SeqSet::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Pre-sizes for at least `additional` further events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.pending.reserve(additional);
    }

    /// Schedules `event` at `time` and returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: pack(time, seq),
            event,
        });
        self.pending.insert(seq);
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been popped or cancelled.
    /// Cancelled events are dropped lazily when they reach the queue head.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.pending.remove(&handle.0)
    }

    /// Removes and returns the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.pending.remove(&unpack_seq(entry.key)) {
                return Some((unpack_time(entry.key), entry.event));
            }
        }
        None
    }

    /// The timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the head so the peeked value is live.
        while let Some(entry) = self.heap.peek() {
            if self.pending.contains(&unpack_seq(entry.key)) {
                return Some(unpack_time(entry.key));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (non-cancelled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.pending.len())
            .field("heap_size", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_micros(1), "a");
        let h2 = q.push(SimTime::from_micros(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        assert!(!q.cancel(h2), "cancel after pop reports false");
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h = q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_micros(1), "cancelled");
        q.push(SimTime::from_micros(9), "live");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.pop().unwrap().1, "live");
    }

    #[test]
    fn peek_time_empty_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn with_capacity_and_reserve_preserve_behaviour() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..32 {
            q.push(SimTime::from_micros(100 - i), i);
        }
        q.reserve(1_000);
        assert_eq!(q.len(), 32);
        assert_eq!(q.pop().unwrap().1, 31, "latest push had earliest time");
    }

    #[test]
    fn packed_key_roundtrips_extremes() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "max");
        q.push(SimTime::ZERO, "zero");
        q.push(SimTime::from_micros(u64::MAX - 1), "almost");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "zero")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_micros(u64::MAX - 1), "almost"))
        );
        assert_eq!(q.pop(), Some((SimTime::MAX, "max")));
    }

    proptest! {
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt, "time order violated");
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO tie-break violated");
                    }
                }
                prop_assert_eq!(SimTime::from_micros(times[idx]), t);
                last = Some((t, idx));
            }
        }

        #[test]
        fn cancelled_events_never_pop(
            times in proptest::collection::vec(0u64..1000, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let mut q = EventQueue::new();
            let handles: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.push(SimTime::from_micros(t), i))
                .collect();
            let mut expected: Vec<usize> = Vec::new();
            for (i, h) in handles.iter().enumerate() {
                if cancel_mask[i % cancel_mask.len()] {
                    q.cancel(*h);
                } else {
                    expected.push(i);
                }
            }
            let mut popped: Vec<usize> = Vec::new();
            while let Some((_, idx)) = q.pop() {
                popped.push(idx);
            }
            popped.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(popped, expected);
        }
    }
}
