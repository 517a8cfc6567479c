//! Client-side cluster routing: round-robin spreading with per-node
//! health tracking and failover.

use sim::{SimDuration, SimTime};

/// How long a node stays deprioritized after a timeout (it may be
/// crashed — back off hard).
const COOLDOWN: SimDuration = SimDuration::from_millis(250);

/// How long a node stays deprioritized after an `Overloaded` reply (it is
/// alive but saturated — back off briefly).
const PENALTY: SimDuration = SimDuration::from_millis(20);

/// Per-generator routing state over an `n`-node cluster.
///
/// Requests round-robin across nodes, skipping any node currently held
/// down: a timeout marks its target *hard*-down for `COOLDOWN` (it may be
/// crashed), an `Overloaded` reply *soft*-down for the shorter `PENALTY`
/// (it is alive but saturated). When every node is soft-down the router
/// still picks one — a saturated cluster is worth a try — but when every
/// node is hard-down [`Router::pick`] returns `None` so the caller can
/// fail fast with a distinct outcome instead of burning its retry budget
/// against known-dead machines.
#[derive(Debug, Clone)]
pub struct Router {
    cursor: usize,
    down_until: Vec<SimTime>,
    hard_until: Vec<SimTime>,
}

impl Router {
    /// A router over node indices `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "routing needs at least one node");
        Router { cursor: 0, down_until: vec![SimTime::ZERO; n], hard_until: vec![SimTime::ZERO; n] }
    }

    /// Picks the next node, preferring healthy ones and avoiding
    /// `avoid` (the node a failing attempt just used) when any other
    /// healthy node exists. Returns `None` only when *every* node is
    /// hard-down (timed out recently): there is nowhere worth sending.
    pub fn pick(&mut self, now: SimTime, avoid: Option<usize>) -> Option<usize> {
        let n = self.down_until.len();
        let healthy = |i: usize, down_until: &[SimTime]| down_until[i] <= now;
        // First pass: healthy and not the node we are failing away from.
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if healthy(i, &self.down_until) && Some(i) != avoid {
                self.cursor = (i + 1) % n;
                return Some(i);
            }
        }
        // Second pass: any healthy node (possibly `avoid` itself).
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if healthy(i, &self.down_until) {
                self.cursor = (i + 1) % n;
                return Some(i);
            }
        }
        // Third pass: everything is at least soft-down; force a pick among
        // nodes that are *not* hard-down (alive but saturated).
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if self.hard_until[i] <= now {
                self.cursor = (i + 1) % n;
                return Some(i);
            }
        }
        // Every node timed out recently: fail fast, don't burn retries.
        None
    }

    /// Records a successful answer from node `i`: it is healthy again.
    pub fn success(&mut self, i: usize) {
        self.down_until[i] = SimTime::ZERO;
        self.hard_until[i] = SimTime::ZERO;
    }

    /// Records an `Overloaded` reply from node `i`: deprioritize briefly.
    pub fn overloaded(&mut self, i: usize, now: SimTime) {
        self.down_until[i] = self.down_until[i].max(now + PENALTY);
    }

    /// Records a timed-out attempt against node `i`: back off hard.
    pub fn timed_out(&mut self, i: usize, now: SimTime) {
        let until = now + COOLDOWN;
        self.down_until[i] = self.down_until[i].max(until);
        self.hard_until[i] = self.hard_until[i].max(until);
    }

    /// True when node `i` is currently held down.
    #[cfg(test)]
    fn is_down(&self, i: usize, now: SimTime) -> bool {
        self.down_until[i] > now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_over_healthy_nodes() {
        let mut r = Router::new(3);
        let now = SimTime::ZERO;
        let picks: Vec<usize> = (0..6).map(|_| r.pick(now, None).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn down_nodes_are_skipped_until_they_recover() {
        let mut r = Router::new(3);
        let now = SimTime::from_secs(1);
        r.timed_out(1, now);
        assert!(r.is_down(1, now));
        let picks: Vec<usize> = (0..4).map(|_| r.pick(now, None).unwrap()).collect();
        assert!(!picks.contains(&1), "held-down node picked: {picks:?}");
        // After the cooldown it rejoins the rotation.
        let later = now + COOLDOWN;
        assert!(!r.is_down(1, later));
        let picks: Vec<usize> = (0..3).map(|_| r.pick(later, None).unwrap()).collect();
        assert!(picks.contains(&1));
    }

    #[test]
    fn failover_avoids_the_failing_node_when_possible() {
        let mut r = Router::new(2);
        let now = SimTime::ZERO;
        for _ in 0..4 {
            assert_ne!(r.pick(now, Some(0)), Some(0));
        }
    }

    #[test]
    fn all_hard_down_fails_fast_instead_of_forcing_a_pick() {
        // Satellite regression: when every node timed out recently, the
        // router must say so (`None`) instead of routing the request at a
        // known-dead machine and burning the retry budget.
        let mut r = Router::new(2);
        let now = SimTime::from_secs(1);
        r.timed_out(0, now);
        r.timed_out(1, now);
        assert_eq!(r.pick(now, None), None);
        // Past the cooldown the cluster is routable again.
        let later = now + COOLDOWN;
        let i = r.pick(later, None).unwrap();
        assert!(i < 2);
        // Success clears the hold immediately.
        r.success(i);
        assert!(!r.is_down(i, now));
    }

    #[test]
    fn all_soft_down_still_forces_a_pick() {
        // Overload penalties mean "alive but saturated" — a cluster of
        // saturated nodes is still worth one attempt.
        let mut r = Router::new(2);
        let now = SimTime::from_secs(1);
        r.overloaded(0, now);
        r.overloaded(1, now);
        assert!(r.pick(now, None).is_some());
    }

    #[test]
    fn mixed_soft_and_hard_down_routes_to_the_soft_node() {
        let mut r = Router::new(3);
        let now = SimTime::from_secs(1);
        r.timed_out(0, now);
        r.timed_out(2, now);
        r.overloaded(1, now);
        // Node 1 is merely penalized; the forced pick must choose it over
        // the two timed-out nodes.
        assert_eq!(r.pick(now, None), Some(1));
    }

    #[test]
    fn single_node_cluster_always_routes_to_it() {
        let mut r = Router::new(1);
        let now = SimTime::ZERO;
        r.overloaded(0, now);
        assert_eq!(r.pick(now, Some(0)), Some(0));
    }
}
