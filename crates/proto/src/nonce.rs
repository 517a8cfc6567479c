//! Bounded nonce deduplication for request/response clients.
//!
//! The fabric can duplicate and reorder datagrams, so clients must
//! remember which nonces are still legitimately outstanding and drop
//! everything else. Remembering *every* nonce ever issued grows without
//! bound over a long serving run; [`NonceWindow`] keeps only the most
//! recent `capacity` outstanding nonces, evicting the oldest — a stale
//! straggler past the window is indistinguishable from a replay and is
//! rightly ignored.

use std::collections::VecDeque;

/// A fixed-capacity window of outstanding nonces with FIFO eviction.
///
/// # Examples
///
/// ```
/// use proto::NonceWindow;
///
/// let mut w = NonceWindow::new(2);
/// w.insert(1);
/// w.insert(2);
/// w.insert(3); // evicts 1
/// assert!(!w.take(1)); // too old: treated as a replay
/// assert!(w.take(3));
/// assert!(!w.take(3)); // second (duplicated) answer is dropped
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NonceWindow {
    capacity: usize,
    window: VecDeque<u64>,
}

impl NonceWindow {
    /// Creates a window remembering at most `capacity` outstanding nonces.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a nonce window needs room for at least one nonce");
        NonceWindow { capacity, window: VecDeque::with_capacity(capacity) }
    }

    /// Marks `nonce` outstanding, evicting the oldest entry when full.
    pub fn insert(&mut self, nonce: u64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(nonce);
    }

    /// Consumes `nonce` if it is outstanding. Returns `false` for nonces
    /// never issued, already answered (duplicates), or evicted (stale
    /// stragglers) — all of which the caller must ignore.
    pub fn take(&mut self, nonce: u64) -> bool {
        match self.window.iter().position(|&n| n == nonce) {
            Some(i) => {
                self.window.remove(i);
                true
            }
            None => false,
        }
    }

    /// Nonces currently outstanding.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_and_duplicates() {
        let mut w = NonceWindow::new(4);
        for n in 1..=4 {
            w.insert(n);
        }
        assert_eq!(w.len(), 4);
        assert!(w.take(2));
        assert!(!w.take(2), "a consumed nonce must not match again");
        assert!(!w.take(99), "never-issued nonces never match");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn capacity_one_behaves_like_a_single_slot() {
        // The exact semantics ClientWorkload relied on with its old
        // `awaiting: Option<u64>` field.
        let mut w = NonceWindow::new(1);
        w.insert(1);
        w.insert(2); // resend/eviction: only the latest request counts
        assert!(!w.take(1));
        assert!(w.take(2));
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one nonce")]
    fn zero_capacity_rejected() {
        let _ = NonceWindow::new(0);
    }

    #[test]
    fn long_run_memory_stays_flat() {
        // Regression: at serving-layer request volumes (millions of nonces
        // per run) the dedup set must not grow with the run length — only
        // with its fixed capacity.
        let mut w = NonceWindow::new(64);
        for nonce in 0..2_000_000u64 {
            w.insert(nonce);
            // Answer roughly half the traffic, leave the rest to age out.
            if nonce % 2 == 0 {
                w.take(nonce);
            }
            assert!(w.len() <= 64);
        }
        assert_eq!(w.capacity, 64);
        assert!(w.len() <= 64);
        // The backing storage never outgrew the capacity either.
        assert!(w.window.capacity() <= 128, "backing buffer grew: {}", w.window.capacity());
    }
}
