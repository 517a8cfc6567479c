//! The live driver's monotonic-deadline timer queue.
//!
//! Implements the [`proto::Env`] timer contract for the live driver:
//! arming returns a [`TimerId`] holding the token and an arming sequence
//! number; arming a token supersedes its earlier arming (one firing, at
//! the new deadline); cancelling an id that is no longer its token's
//! current arming — fired, cancelled or superseded — is a no-op; and a
//! popped stale heap entry is silently skipped.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use proto::TimerId;

/// A token-addressed deadline queue over monotonic nanoseconds.
#[derive(Debug, Default)]
pub struct TimerQueue {
    /// `(deadline, token, arming sequence)`, soonest first.
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// Each armed token's current arming sequence.
    armed: HashMap<u64, u64>,
    next_seq: u64,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Arms (or re-arms) `token` to fire at `deadline_ns`.
    pub fn arm(&mut self, token: u64, deadline_ns: u64) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.armed.insert(token, seq);
        self.heap.push(Reverse((deadline_ns, token, seq)));
        TimerId::new(token, seq)
    }

    /// Disarms the arming `id` names; a no-op when it is not its token's
    /// current arming. The heap entry becomes a tombstone skipped on pop.
    pub fn cancel(&mut self, id: TimerId) {
        if self.armed.get(&id.token()) == Some(&id.handle()) {
            self.armed.remove(&id.token());
        }
    }

    /// The next live deadline, discarding tombstones along the way.
    pub fn next_deadline(&mut self) -> Option<u64> {
        while let Some(&Reverse((deadline, token, seq))) = self.heap.peek() {
            if self.armed.get(&token) == Some(&seq) {
                return Some(deadline);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the next token whose deadline is at or before `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let deadline = self.next_deadline()?;
        if deadline > now_ns {
            return None;
        }
        let Reverse((_, token, _)) = self.heap.pop().expect("peeked entry present");
        self.armed.remove(&token);
        Some(token)
    }

    /// True when no timer is armed.
    pub fn is_empty(&mut self) -> bool {
        self.next_deadline().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut q = TimerQueue::new();
        q.arm(1, 300);
        q.arm(2, 100);
        q.arm(3, 200);
        assert_eq!(q.pop_due(50), None);
        assert_eq!(q.pop_due(300), Some(2));
        assert_eq!(q.pop_due(300), Some(3));
        assert_eq!(q.pop_due(300), Some(1));
        assert_eq!(q.pop_due(1_000), None);
    }

    #[test]
    fn cancel_tombstones_the_entry() {
        let mut q = TimerQueue::new();
        let id = q.arm(7, 100);
        q.cancel(id);
        assert_eq!(q.pop_due(200), None);
        assert!(q.is_empty());
    }

    #[test]
    fn rearm_supersedes_the_old_deadline() {
        let mut q = TimerQueue::new();
        q.arm(7, 100);
        q.arm(7, 500);
        // The old entry is stale even though its deadline passed.
        assert_eq!(q.pop_due(200), None);
        assert_eq!(q.pop_due(500), Some(7));
        assert_eq!(q.pop_due(1_000), None);
    }

    #[test]
    fn cancel_then_rearm_fires_once() {
        let mut q = TimerQueue::new();
        let id = q.arm(1, 100);
        q.cancel(id);
        q.arm(1, 150);
        assert_eq!(q.pop_due(150), Some(1));
        assert_eq!(q.pop_due(1_000), None);
    }

    /// The live `TimerId` contract: a cancelled id never fires, and
    /// cancelling a superseded or fired id is a no-op that leaves a later
    /// arming of the same token alone.
    #[test]
    fn a_timer_id_cancels_only_its_own_arming() {
        let mut q = TimerQueue::new();
        let doomed = q.arm(1, 100);
        q.cancel(doomed);
        let superseded = q.arm(2, 100);
        q.arm(2, 300);
        q.cancel(superseded);
        let fired = q.arm(3, 150);
        assert_eq!(q.pop_due(200), Some(3));
        q.arm(3, 400);
        q.cancel(fired);
        q.cancel(doomed);
        assert_eq!(q.pop_due(1_000), Some(2));
        assert_eq!(q.pop_due(1_000), Some(3));
        assert_eq!(q.pop_due(1_000), None);
    }
}
