//! A stable, timestamped event queue.
//!
//! [`EventQueue`] is a min-heap keyed on `(time, sequence)`. The sequence
//! number makes ordering *stable*: two events scheduled for the same instant
//! pop in the order they were pushed, which keeps simulations deterministic
//! regardless of heap internals.
//!
//! The queue sits on the simulation's hottest path (every frame, timer and
//! sample passes through it), so the implementation avoids the obvious
//! overheads: heap entries compare as one packed `u128` instead of a
//! two-field lexicographic compare, and liveness is a slot table instead
//! of a hash set. Each pending event holds a slot, which stores the event
//! and its sequence number; the number doubles as the slot's generation,
//! so checking a heap entry or a cancellation handle is one indexed
//! compare. Freed slots are reused, so the table is as large as the peak
//! number of pending events, not the number of pushes. Heap entries carry
//! only `(time, seq, slot)`, 24 bytes whatever the event type.
//! [`EventQueue::with_capacity`] / [`EventQueue::reserve`] let callers
//! pre-size the heap and the table.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Handles are unique per [`EventQueue`] instance and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle {
    /// The event's sequence number: unique, and its slot's generation.
    seq: u64,
    /// The liveness slot the event holds while pending.
    slot: u32,
}

/// Liveness value of a slot no pending event holds. No event gets this
/// sequence number: the counter would first have to count every `u64`.
const FREE: u64 = u64::MAX;

/// One-multiply hasher for small integer ids, the hasher of [`FastMap`].
/// SplitMix64-style finalization: fast, and sequential keys spread
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

/// One heap entry: the ordering key plus the slot that holds the event.
/// Payloads stay in the slot table, so sifting moves 24 bytes whatever
/// the event type.
#[derive(Clone, Copy)]
struct Entry {
    /// Scheduled time, µs.
    time: u64,
    /// Push order: the FIFO tie-break among equal times.
    seq: u64,
    /// The slot the event holds while pending.
    slot: u32,
}

impl Entry {
    /// `(time << 64) | seq` — one `u128` compare orders by time with FIFO
    /// tie-break, replacing the two-branch lexicographic compare.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other.key().cmp(&self.key())
    }
}

/// One slot of the liveness table.
struct Slot<E> {
    /// Sequence number of the pending event holding the slot, or
    /// [`FREE`]. It doubles as the slot's generation: sequence numbers are
    /// never reused, so a stale heap entry or handle never matches a slot
    /// that has since been reused.
    seq: u64,
    /// The pending event's payload.
    event: Option<E>,
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
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    /// Pending events by slot. An event is live while its slot still
    /// holds its sequence number; popping or cancelling frees the slot.
    /// Cancelled heap entries are dropped lazily at the heap head.
    slots: Vec<Slot<E>>,
    /// Free slots, reused last-in first-out: the table never outgrows the
    /// peak number of pending events.
    free: Vec<u32>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Pre-sizes for at least `additional` further events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.slots.reserve(additional);
    }

    /// Schedules `event` at `time` and returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX pending");
                self.slots.push(filled);
                slot
            }
        };
        self.heap.push(Entry {
            time: time.as_micros(),
            seq,
            slot,
        });
        EventHandle { seq, slot }
    }

    /// Frees `slot` and returns its event if event `seq` still holds it.
    #[inline]
    fn release(&mut self, slot: u32, seq: u64) -> Option<E> {
        let held = self.slots.get_mut(slot as usize)?;
        if held.seq != seq {
            return None;
        }
        held.seq = FREE;
        self.free.push(slot);
        held.event.take()
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been popped or cancelled.
    /// The event is dropped at once; its heap entry is dropped lazily when
    /// it reaches the queue head.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.release(handle.slot, handle.seq).is_some()
    }

    /// Removes and returns the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if let Some(event) = self.release(entry.slot, entry.seq) {
                return Some((SimTime::from_micros(entry.time), event));
            }
        }
        None
    }

    /// The timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the head so the peeked value is live.
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].seq == entry.seq {
                return Some(SimTime::from_micros(entry.time));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (non-cancelled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.len())
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
        assert!(!q.cancel(EventHandle { seq: 42, slot: 0 }));
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

    #[test]
    fn liveness_table_stays_at_peak_pending_size() {
        let mut q = EventQueue::new();
        let mut handles: Vec<EventHandle> = (0..8u64)
            .map(|i| q.push(SimTime::from_micros(i), i))
            .collect();
        for i in 8..100_008u64 {
            if i % 3 == 0 {
                // Cancel the newest handle and replace it...
                let h = handles.pop().expect("eight handles held");
                if q.cancel(h) {
                    handles.push(q.push(SimTime::from_micros(i), i));
                }
            } else {
                // ... or retire the earliest event and schedule another.
                q.pop().expect("eight events pending");
                handles.push(q.push(SimTime::from_micros(i), i));
            }
            assert_eq!(q.len(), 8);
            assert!(
                q.slots.len() <= 8,
                "liveness table grew to {}",
                q.slots.len()
            );
        }
        assert_eq!(q.slots.len(), 8);
    }

    /// One step of the model test.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        /// Cancel the `n % issued`-th handle issued so far: live, popped
        /// or already cancelled.
        Cancel(usize),
        /// Cancel a handle this queue never issued.
        CancelUnknown(u32),
        Pop,
        PeekTime,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0u64..50, any::<usize>(), any::<u32>()).prop_map(
            |(pick, t, n, slot)| match pick {
                0..=3 => Op::Push(t),
                4..=5 => Op::Cancel(n),
                6 => Op::CancelUnknown(slot),
                7..=9 => Op::Pop,
                _ => Op::PeekTime,
            },
        )
    }

    proptest! {
        /// `push`/`cancel`/`pop`/`peek_time`/`len` against a `BinaryHeap`
        /// of `(time, seq)` plus a `HashSet` of live sequence numbers.
        #[test]
        fn matches_a_heap_and_set_model(ops in proptest::collection::vec(op(), 1..300)) {
            use std::cmp::Reverse;
            use std::collections::{BinaryHeap, HashSet};

            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut live: HashSet<u64> = HashSet::new();
            let mut handles: Vec<EventHandle> = Vec::new();
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Push(t) => {
                        let seq = handles.len() as u64;
                        handles.push(q.push(SimTime::from_micros(t), seq));
                        model.push(Reverse((t, seq)));
                        live.insert(seq);
                        peak = peak.max(live.len());
                    }
                    Op::Cancel(n) if !handles.is_empty() => {
                        let seq = n % handles.len();
                        let want = live.remove(&(seq as u64));
                        prop_assert_eq!(q.cancel(handles[seq]), want);
                    }
                    Op::Cancel(_) => {}
                    Op::CancelUnknown(slot) => {
                        let forged = EventHandle { seq: handles.len() as u64 + 1, slot };
                        prop_assert!(!q.cancel(forged));
                    }
                    Op::Pop => {
                        let mut want = None;
                        while let Some(Reverse((t, seq))) = model.pop() {
                            if live.remove(&seq) {
                                want = Some((SimTime::from_micros(t), seq));
                                break;
                            }
                        }
                        prop_assert_eq!(q.pop(), want);
                    }
                    Op::PeekTime => {
                        while let Some(&Reverse((_, seq))) = model.peek() {
                            if live.contains(&seq) {
                                break;
                            }
                            model.pop();
                        }
                        let want = model.peek().map(|&Reverse((t, _))| SimTime::from_micros(t));
                        prop_assert_eq!(q.peek_time(), want);
                    }
                }
                prop_assert_eq!(q.len(), live.len());
                prop_assert_eq!(q.is_empty(), live.is_empty());
                prop_assert_eq!(q.slots.len(), peak, "liveness table is not peak-pending sized");
            }
        }

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
