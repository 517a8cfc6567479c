//! The one deadline queue: scheduled events, their deterministic
//! ordering, and the structure that stores, orders, and cancels them.
//!
//! [`EventQueue`] is an implicit 4-ary min-heap of small fixed-size
//! [`QueuedEvent`] records keyed by `(time, seq)`, over a generation-stamped
//! slab that holds the payloads. Each slab slot remembers where its record
//! currently sits in the heap, so cancellation removes the record on the
//! spot (O(log n)) instead of leaving a tombstone to ride the queue to its
//! deadline: the heap only ever holds live events. Every slot carries a
//! generation counter that is bumped each time the slot is vacated, so a
//! stale handle (an already-fired or already-cancelled event, or a recycled
//! slot) can never reach a payload — or a heap record — it does not own.
//!
//! The simulation schedules every event in it, and the drivers that run
//! without a simulation (the live runtime, the scripted test `Env`) arm
//! their timers in one of their own through [`EventQueue::arm`] and
//! [`EventQueue::pop_due`], so every `proto::Env` mints its timer handles
//! from the same structure under the same rule.
//!
//! # Ordering contract
//!
//! [`EventQueue::pop`] yields events in exactly `(time, seq)` order. `seq`
//! is drawn from one monotone counter at scheduling time and is therefore
//! unique, so the key is a total order and the pop sequence is a pure
//! function of the set of live keys: it cannot depend on the heap's arity,
//! on the order pushes arrived in, or on which removals happened in
//! between. That is the whole determinism argument, and it is what lets
//! actor callbacks push straight into the queue.
//!
//! The heap is sized for the populations the repo benchmark measures
//! (14–42 live events with nanosecond-scattered deadlines, see DESIGN.md):
//! at that depth a push or pop is a two-level sift over one or two cache
//! lines.

use crate::actor::ActorId;
use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Returned by the scheduling methods on [`crate::Ctx`] and
/// [`crate::Simulation`], and by [`EventQueue::arm`]. Internally packs the
/// payload slot and its generation stamp, which makes stale handles
/// (recycled slots) inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The id as one integer, for drivers that store it in a handle of
    /// their own.
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// The id [`EventId::to_bits`] returned `bits` for. Any `u64` is
    /// safe to cancel: one that names no live event is a no-op.
    pub fn from_bits(bits: u64) -> Self {
        EventId(bits)
    }

    pub(crate) fn pack(slot: u32, gen: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event waiting in the scheduler queue. Its payload lives in the slab
/// slot named by `id`.
///
/// Ordering is by `(time, seq)`: earlier deadlines first, and FIFO among
/// events scheduled for the same instant. `seq` is a global monotonically
/// increasing counter assigned at scheduling time, which makes execution
/// order fully deterministic regardless of payload contents.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub time: SimTime,
    pub seq: u64,
    pub id: EventId,
    pub target: ActorId,
}

impl QueuedEvent {
    /// `(time, seq)` as one integer, so ordering is a single compare.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// Heap arity: four children per node halves the depth of a binary heap
/// and keeps one node's children in a single 128-byte span.
const ARITY: usize = 4;

/// One slab slot: its current generation and, while the event is live,
/// the payload and the index of its record in the heap.
#[derive(Debug)]
struct Slot<M> {
    generation: u32,
    heap_pos: u32,
    payload: Option<M>,
}

/// The deadline queue: slab-indexed 4-ary min-heap (see module docs).
///
/// Slots are handed out densely and recycled through a free list, so a
/// steady-state simulation (schedule one, dispatch one) reaches a fixed
/// footprint and never allocates again. Invariant: `heap[i]` is live, and
/// `slots[heap[i].id.slot()].heap_pos == i`; a slot is on the free list
/// exactly when its payload is `None`.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: Vec<QueuedEvent>,
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue { heap: Vec::new(), slots: Vec::new(), free: Vec::new(), next_seq: 0 }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events scheduled and not yet fired or cancelled.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of slab slots ever allocated (the memory high-water mark in
    /// slot units; flat slot counts across long cancel/fire loops are the
    /// no-leak regression signal).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Deadline of the next event in `(time, seq)` order.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|ev| ev.time)
    }

    /// Arms `payload` to come due at `deadline`, after every arming
    /// already due at the same instant: the timer entry point of a driver
    /// that runs without a simulation. The id cancels this arming alone.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` armings are simultaneously pending.
    pub fn arm(&mut self, deadline: SimTime, payload: M) -> EventId {
        // Nothing dispatches on the target outside a simulation.
        self.push(deadline, ActorId(0), payload)
    }

    /// Pops the next arming in `(deadline, arming order)` if its deadline
    /// is at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<M> {
        if self.peek_time()? > now {
            return None;
        }
        self.pop().map(|(_, payload)| payload)
    }

    /// Stores `payload` and queues it for `target` at `time`, after every
    /// event already scheduled for the same instant.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are simultaneously in flight.
    pub(crate) fn push(&mut self, time: SimTime, target: ActorId, payload: M) -> EventId {
        let id = match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.payload.is_none(), "free slot occupied");
                entry.payload = Some(payload);
                EventId::pack(slot, entry.generation)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab slot fits u32");
                self.slots.push(Slot { generation: 0, heap_pos: 0, payload: Some(payload) });
                EventId::pack(slot, 0)
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = QueuedEvent { time, seq, id, target };
        let pos = self.heap.len();
        self.heap.push(ev);
        self.sift_up(pos, ev);
        id
    }

    /// Removes and returns the next event in `(time, seq)` order together
    /// with its payload, recycling the slot.
    pub(crate) fn pop(&mut self) -> Option<(QueuedEvent, M)> {
        let ev = *self.heap.first()?;
        self.remove_at(0);
        let payload = self.vacate(ev.id.slot()).expect("queued event owns a payload");
        Some((ev, payload))
    }

    /// Cancels the event `id`: unlinks its record from the heap, drops its
    /// payload, and recycles the slot.
    ///
    /// Returns `true` if the event was live. Stale ids (already fired,
    /// already cancelled, or recycled slots) are a no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(entry) = self.slots.get(id.slot() as usize) else { return false };
        if entry.generation != id.generation() || entry.payload.is_none() {
            return false;
        }
        let pos = entry.heap_pos as usize;
        debug_assert_eq!(self.heap[pos].id, id, "slot points at another event's record");
        self.remove_at(pos);
        self.vacate(id.slot());
        true
    }

    /// Takes the payload out of `slot`, bumps its generation so every
    /// handle to this occupancy goes stale, and frees it.
    fn vacate(&mut self, slot: u32) -> Option<M> {
        let entry = &mut self.slots[slot as usize];
        let payload = entry.payload.take();
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        payload
    }

    /// Unlinks the record at heap index `pos`, re-seating the last record
    /// in its place.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("remove from a non-empty heap");
        if pos == self.heap.len() {
            return;
        }
        // The filler comes from an unrelated subtree when `pos` is not the
        // root, so it may belong above or below the vacated position.
        if pos > 0 && last.key() < self.heap[(pos - 1) / ARITY].key() {
            self.sift_up(pos, last);
        } else {
            self.sift_down(pos, last);
        }
    }

    fn place(&mut self, pos: usize, ev: QueuedEvent) {
        self.heap[pos] = ev;
        self.slots[ev.id.slot() as usize].heap_pos = pos as u32;
    }

    /// Settles `ev` at or above the hole at `pos`.
    fn sift_up(&mut self, mut pos: usize, ev: QueuedEvent) {
        let key = ev.key();
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.heap[parent];
            if above.key() <= key {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, ev);
    }

    /// Settles `ev` at or below the hole at `pos`.
    fn sift_down(&mut self, mut pos: usize, ev: QueuedEvent) {
        let key = ev.key();
        let len = self.heap.len();
        loop {
            let first = ARITY * pos + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_key = self.heap[first].key();
            for child in first + 1..(first + ARITY).min(len) {
                let child_key = self.heap[child].key();
                if child_key < best_key {
                    best = child;
                    best_key = child_key;
                }
            }
            if key <= best_key {
                break;
            }
            let below = self.heap[best];
            self.place(pos, below);
            pos = best;
        }
        self.place(pos, ev);
    }
}

#[cfg(test)]
impl<M> EventQueue<M> {
    /// True while `id` still owns a payload (scheduled, not yet fired or
    /// cancelled).
    pub fn is_live(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot() as usize)
            .is_some_and(|e| e.generation == id.generation() && e.payload.is_some())
    }

    /// Checks the structural invariants (heap order, slot back-pointers,
    /// free-list accounting).
    pub fn assert_consistent(&self) {
        for (pos, ev) in self.heap.iter().enumerate() {
            let slot = &self.slots[ev.id.slot() as usize];
            assert_eq!(slot.heap_pos as usize, pos, "back-pointer of {ev:?}");
            assert_eq!(slot.generation, ev.id.generation(), "generation of {ev:?}");
            assert!(slot.payload.is_some(), "queued record without a payload: {ev:?}");
            if pos > 0 {
                assert!(self.heap[(pos - 1) / ARITY].key() < ev.key(), "heap order at {pos}");
            }
        }
        assert_eq!(self.heap.len() + self.free.len(), self.slots.len(), "slot accounting");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGET: ActorId = ActorId(0);

    fn at(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    fn drain<M>(q: &mut EventQueue<M>) -> Vec<(u64, M)> {
        std::iter::from_fn(|| q.pop()).map(|(ev, m)| (ev.time.as_nanos(), m)).collect()
    }

    #[test]
    fn key_orders_by_time_then_seq() {
        let ev = |t, seq| QueuedEvent { time: at(t), seq, id: EventId::pack(0, 0), target: TARGET };
        assert!(ev(1, 10).key() < ev(2, 0).key());
        assert!(ev(5, 1).key() < ev(5, 2).key());
        assert_eq!(ev(5, 1).key(), ev(5, 1).key());
        assert!(ev(u64::MAX, 0).key() > ev(u64::MAX - 1, u64::MAX).key());
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        for (seq, t) in [500, 3, 500, 1 << 40, 4096, u64::MAX].into_iter().enumerate() {
            q.push(at(t), TARGET, seq);
        }
        assert_eq!(
            drain(&mut q),
            vec![(3, 1), (500, 0), (500, 2), (4096, 4), (1 << 40, 3), (u64::MAX, 5)]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_behind_the_head_after_a_peek_pops_first() {
        let mut q = EventQueue::new();
        q.push(at(1000), TARGET, 'a');
        assert_eq!(q.peek_time(), Some(at(1000)));
        q.push(at(10), TARGET, 'b');
        assert_eq!(q.peek_time(), Some(at(10)));
        assert_eq!(drain(&mut q), vec![(10, 'b'), (1000, 'a')]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_instant_push_during_drain_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(at(100), TARGET, 0);
        q.push(at(100), TARGET, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // A same-instant later push must pop after the remaining event.
        q.push(at(100), TARGET, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn cancel_unlinks_from_any_heap_position() {
        // Pushed in this order no key sifts, so the list is the heap
        // layout: root 0, its children 100 1 2 3, then their children in
        // turn. Cancelling under 100 re-seats the last record (33, from
        // the subtree of 3) *upwards*; every other position sifts down.
        const KEYS: [u64; 21] =
            [0, 100, 1, 2, 3, 101, 102, 103, 104, 10, 11, 12, 13, 20, 21, 22, 23, 30, 31, 32, 33];
        for doomed in 0..KEYS.len() {
            let mut q = EventQueue::new();
            let ids: Vec<EventId> = KEYS.iter().map(|&t| q.push(at(t), TARGET, t)).collect();
            assert!(q.cancel(ids[doomed]));
            q.assert_consistent();
            let mut expected = KEYS.to_vec();
            expected.remove(doomed);
            expected.sort_unstable();
            let popped: Vec<u64> = drain(&mut q).into_iter().map(|(_, m)| m).collect();
            assert_eq!(popped, expected, "after cancelling key {}", KEYS[doomed]);
        }
    }

    #[test]
    fn slots_are_recycled_before_the_slab_grows() {
        let mut q: EventQueue<String> = EventQueue::new();
        let a = q.push(at(1), TARGET, "a".into());
        let b = q.push(at(2), TARGET, "b".into());
        assert_ne!(a, b);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.len(), 1);
        let c = q.push(at(3), TARGET, "c".into());
        assert_eq!(c.slot(), a.slot());
        assert_eq!(q.slot_count(), 2);
        assert_eq!(drain(&mut q), vec![(2, "b".to_string()), (3, "c".to_string())]);
        q.assert_consistent();
    }

    #[test]
    fn stale_id_cannot_reach_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.push(at(1), TARGET, "old");
        assert!(q.cancel(a));
        // The recycled slot now belongs to a different event.
        let b = q.push(at(2), TARGET, "new");
        assert_eq!(b.slot(), a.slot());
        assert_ne!(b.generation(), a.generation());
        assert!(!q.is_live(a));
        assert!(q.is_live(b));
        // The stale handle is inert.
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "new");
        // So is the handle of an event that already fired.
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancel_is_idempotent_and_ignores_unknown_slots() {
        let mut q = EventQueue::new();
        let a = q.push(at(1), TARGET, 9u8);
        assert!(q.is_live(a));
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(!q.is_live(a));
        assert!(!q.cancel(EventId::pack(77, 0)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_due_waits_for_the_deadline_then_fires_in_arming_order() {
        let mut q = EventQueue::new();
        q.arm(at(20), 'b');
        q.arm(at(10), 'a');
        q.arm(at(20), 'c');
        assert_eq!(q.pop_due(at(9)), None);
        assert_eq!(q.pop_due(at(10)), Some('a'));
        assert_eq!(q.pop_due(at(19)), None);
        assert_eq!(q.pop_due(at(25)), Some('b'));
        assert_eq!(q.pop_due(at(25)), Some('c'));
        assert_eq!(q.pop_due(at(u64::MAX)), None);
    }

    #[test]
    fn long_cancel_loop_reuses_one_slot() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            let id = q.push(at(i), TARGET, i);
            assert!(q.cancel(id));
        }
        assert_eq!(q.slot_count(), 1, "cancel/push loop must not grow the slab");
        assert_eq!(q.len(), 0);
    }
}
