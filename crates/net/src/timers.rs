//! The live driver's monotonic-deadline timer queue.
//!
//! Mirrors the simulation scheduler's cancellation contract at the
//! [`proto::Env`] token granularity: arming a token overwrites any
//! earlier arming, cancelling orphans the heap entry, and a popped stale
//! entry (cancelled or superseded) is silently skipped.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A token-addressed deadline queue over monotonic nanoseconds.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    armed: HashMap<u64, u64>,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Arms (or re-arms) `token` to fire at `deadline_ns`.
    pub fn arm(&mut self, token: u64, deadline_ns: u64) {
        self.armed.insert(token, deadline_ns);
        self.heap.push(Reverse((deadline_ns, token)));
    }

    /// Disarms `token`; a no-op when it is not armed. The heap entry
    /// becomes a tombstone skipped on pop.
    pub fn cancel(&mut self, token: u64) {
        self.armed.remove(&token);
    }

    /// The next live deadline, discarding tombstones along the way.
    pub fn next_deadline(&mut self) -> Option<u64> {
        while let Some(&Reverse((deadline, token))) = self.heap.peek() {
            if self.armed.get(&token) == Some(&deadline) {
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
        let Reverse((_, token)) = self.heap.pop().expect("peeked entry present");
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
        q.arm(7, 100);
        q.cancel(7);
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
        q.arm(1, 100);
        q.cancel(1);
        q.arm(1, 150);
        assert_eq!(q.pop_due(150), Some(1));
        assert_eq!(q.pop_due(1_000), None);
    }
}
