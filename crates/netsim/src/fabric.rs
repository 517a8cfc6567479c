//! The datagram fabric: delay, loss, partitions, duplication, reordering,
//! interception, per-link statistics.

use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};

use crate::delay::DelayModel;
use crate::hash::FastMap;
use crate::intercept::{Addr, InterceptAction, Interceptor, MsgMeta};

/// A datagram scheduled for delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Sealed payload.
    pub payload: Vec<u8>,
    /// Instant the sender dispatched it.
    pub send_time: SimTime,
}

/// Counters kept per directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to the fabric.
    pub sent: u64,
    /// Datagrams scheduled for delivery.
    pub delivered: u64,
    /// Datagrams lost to random loss.
    pub lost: u64,
    /// Datagrams dropped by an interceptor.
    pub attacker_dropped: u64,
    /// Datagrams delayed by an interceptor.
    pub attacker_delayed: u64,
    /// Total interceptor-added delay (ns).
    pub attacker_delay_ns: u64,
    /// Duplicate datagrams re-injected by an interceptor.
    pub attacker_replayed: u64,
    /// Datagrams dropped because the link was partitioned.
    pub partition_dropped: u64,
    /// Extra copies injected by fault-driven duplication.
    pub duplicated: u64,
    /// Datagrams given a fault-driven reordering delay.
    pub reordered: u64,
}

/// The simulated network connecting all endpoints.
///
/// # Examples
///
/// ```
/// use netsim::{Addr, DelayModel, Network};
/// use rand::SeedableRng;
/// use sim::{SimDuration, SimTime};
///
/// let mut net = Network::new(DelayModel::Constant(SimDuration::from_micros(100)), 0.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let out = net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(0), vec![0xAB]);
/// assert_eq!(out.len(), 1, "one delivery, no loss configured");
/// assert_eq!(out[0].0, SimTime::ZERO + SimDuration::from_micros(100));
/// assert_eq!(out[0].1.payload, vec![0xAB]);
/// ```
#[derive(Debug)]
pub struct Network {
    default_delay: DelayModel,
    loss_probability: f64,
    duplicate_probability: f64,
    reorder_probability: f64,
    reorder_window: SimDuration,
    interceptors: Vec<Box<dyn Interceptor>>,
    /// All per-link state consolidated behind one lookup: the dispatch
    /// hot path touches exactly one map entry per datagram instead of
    /// separate stats/partition/override tables.
    links: FastMap<(Addr, Addr), LinkState>,
}

/// Everything the fabric knows about one directed link.
#[derive(Debug, Default)]
struct LinkState {
    stats: LinkStats,
    /// Partitioned: every datagram is dropped until healed.
    blocked: bool,
    /// Per-link loss override (fabric default when `None`).
    loss: Option<f64>,
}

fn assert_probability(p: f64, what: &str) {
    assert!((0.0..=1.0).contains(&p), "{what} must be in [0,1], got {p}");
}

impl Network {
    /// Creates a fabric with a default delay model and an i.i.d. loss
    /// probability applied to every datagram. `loss_probability == 1.0`
    /// expresses a total-blackout fabric.
    ///
    /// # Panics
    ///
    /// Panics unless `loss_probability ∈ [0, 1]`.
    pub fn new(default_delay: DelayModel, loss_probability: f64) -> Self {
        assert_probability(loss_probability, "loss probability");
        Network {
            default_delay,
            loss_probability,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_window: SimDuration::ZERO,
            interceptors: Vec::new(),
            links: FastMap::default(),
        }
    }

    /// Overrides the loss probability of one directed link (`1.0` makes the
    /// link a blackout without touching the rest of the fabric).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn set_link_loss(&mut self, src: Addr, dst: Addr, p: f64) {
        assert_probability(p, "link loss probability");
        self.links.entry((src, dst)).or_default().loss = Some(p);
    }

    /// Removes a per-link loss override, reverting to the fabric default.
    pub fn clear_link_loss(&mut self, src: Addr, dst: Addr) {
        if let Some(link) = self.links.get_mut(&(src, dst)) {
            link.loss = None;
        }
    }

    /// Blocks one directed link: every datagram on it is dropped (counted
    /// as `partition_dropped`) until [`Network::heal_link`].
    pub fn block_link(&mut self, src: Addr, dst: Addr) {
        self.links.entry((src, dst)).or_default().blocked = true;
    }

    /// Unblocks one directed link.
    pub fn heal_link(&mut self, src: Addr, dst: Addr) {
        if let Some(link) = self.links.get_mut(&(src, dst)) {
            link.blocked = false;
        }
    }

    /// Blocks both directions between two endpoints (a symmetric
    /// partition).
    pub fn partition_pair(&mut self, a: Addr, b: Addr) {
        self.block_link(a, b);
        self.block_link(b, a);
    }

    /// Heals both directions between two endpoints.
    pub fn heal_pair(&mut self, a: Addr, b: Addr) {
        self.heal_link(a, b);
        self.heal_link(b, a);
    }

    /// Sets the fabric-wide probability that a delivered datagram is
    /// duplicated (the copy takes an independently sampled link delay).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn set_duplication(&mut self, p: f64) {
        assert_probability(p, "duplication probability");
        self.duplicate_probability = p;
    }

    /// Sets the fabric-wide probability that a delivered datagram gets an
    /// extra uniform `[0, window]` delay, letting later traffic overtake it.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn set_reordering(&mut self, p: f64, window: SimDuration) {
        assert_probability(p, "reorder probability");
        self.reorder_probability = p;
        self.reorder_window = window;
    }

    /// Installs an interceptor; interceptors see every datagram in order of
    /// installation and their delays accumulate.
    pub fn add_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.interceptors.push(interceptor);
    }

    /// Statistics for a directed link (zeroes if never used).
    // tt-lint: allow(test-only-pub) — `tests/end_to_end.rs` and `netsim/tests/props.rs` read one link's counters
    pub fn link_stats(&self, src: Addr, dst: Addr) -> LinkStats {
        self.links.get(&(src, dst)).map(|l| l.stats).unwrap_or_default()
    }

    /// Aggregated statistics over all links.
    pub fn total_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for s in self.links.values().map(|l| &l.stats) {
            total.sent += s.sent;
            total.delivered += s.delivered;
            total.lost += s.lost;
            total.attacker_dropped += s.attacker_dropped;
            total.attacker_delayed += s.attacker_delayed;
            total.attacker_delay_ns += s.attacker_delay_ns;
            total.attacker_replayed += s.attacker_replayed;
            total.partition_dropped += s.partition_dropped;
            total.duplicated += s.duplicated;
            total.reordered += s.reordered;
        }
        total
    }

    /// Every directed link with traffic, with its counters, sorted by
    /// `(src, dst)` so output is deterministic.
    pub fn per_link_stats(&self) -> Vec<(Addr, Addr, LinkStats)> {
        let mut rows: Vec<_> = self
            .links
            .iter()
            .filter(|(_, l)| l.stats.sent > 0)
            .map(|(&(src, dst), l)| (src, dst, l.stats))
            .collect();
        rows.sort_by_key(|&(src, dst, _)| (src.0, dst.0));
        rows
    }

    /// Sends a datagram: samples propagation delay, applies loss, runs
    /// interceptors, and returns the scheduled deliveries — empty when the
    /// datagram dies en route, two entries when an interceptor replays it.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        src: Addr,
        dst: Addr,
        payload: Vec<u8>,
    ) -> Vec<(SimTime, Delivery)> {
        let mut out = Vec::new();
        self.dispatch_into(now, rng, src, dst, &payload, &mut out);
        out
    }

    /// Allocation-free [`Network::dispatch`]: borrows the payload (copied
    /// only into surviving deliveries) and appends the scheduled deliveries
    /// to `out` (a reused scratch buffer on the hot path — clear it first).
    ///
    /// Draws from `rng` in exactly the same order as [`Network::dispatch`],
    /// so the two entry points are interchangeable without perturbing the
    /// deterministic stream.
    pub fn dispatch_into(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        src: Addr,
        dst: Addr,
        payload: &[u8],
        out: &mut Vec<(SimTime, Delivery)>,
    ) {
        // One map access covers partition state, overrides, and every
        // counter this datagram can touch.
        let link = self.links.entry((src, dst)).or_default();
        link.stats.sent += 1;

        if link.blocked {
            link.stats.partition_dropped += 1;
            return;
        }

        let loss = link.loss.unwrap_or(self.loss_probability);
        if loss > 0.0 && rng.gen_bool(loss) {
            link.stats.lost += 1;
            return;
        }

        let mut delay = self.default_delay.sample(rng);

        // Fault-driven reordering: an extra uniform delay lets datagrams
        // sent later overtake this one. Gated so a zero probability draws
        // nothing from the RNG stream.
        if self.reorder_probability > 0.0 && rng.gen_bool(self.reorder_probability) {
            let window_ns = self.reorder_window.as_nanos();
            if window_ns > 0 {
                delay += SimDuration::from_nanos(rng.gen_range(0..=window_ns));
            }
            link.stats.reordered += 1;
        }

        let meta = MsgMeta { src, dst, size: payload.len(), send_time: now };
        let mut attacker_delay = SimDuration::ZERO;
        let mut delayed = false;
        let mut replay_after: Option<SimDuration> = None;
        for interceptor in &mut self.interceptors {
            match interceptor.on_message(now, &meta, payload) {
                InterceptAction::Deliver => {}
                InterceptAction::Delay(d) => {
                    attacker_delay += d;
                    delayed = true;
                }
                InterceptAction::Replay(d) => {
                    replay_after = Some(d);
                }
                InterceptAction::Drop => {
                    link.stats.attacker_dropped += 1;
                    return;
                }
            }
        }
        delay += attacker_delay;

        // Fault-driven duplication: the copy takes an independently sampled
        // link delay, so it can land before or after the original.
        let duplicate_delay =
            if self.duplicate_probability > 0.0 && rng.gen_bool(self.duplicate_probability) {
                Some(self.default_delay.sample(rng) + attacker_delay)
            } else {
                None
            };

        link.stats.delivered += 1;
        if delayed {
            link.stats.attacker_delayed += 1;
            link.stats.attacker_delay_ns += attacker_delay.as_nanos();
        }
        out.push((now + delay, Delivery { src, dst, payload: payload.to_vec(), send_time: now }));
        if let Some(extra) = replay_after {
            link.stats.attacker_replayed += 1;
            out.push((
                now + delay + extra,
                Delivery { src, dst, payload: payload.to_vec(), send_time: now },
            ));
        }
        if let Some(dup_delay) = duplicate_delay {
            link.stats.duplicated += 1;
            out.push((
                now + dup_delay,
                Delivery { src, dst, payload: payload.to_vec(), send_time: now },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fixed_net(delay_us: u64) -> Network {
        Network::new(DelayModel::Constant(SimDuration::from_micros(delay_us)), 0.0)
    }

    #[test]
    fn dispatch_applies_link_delay() {
        let mut net = fixed_net(150);
        let mut rng = StdRng::seed_from_u64(0);
        let out = net.dispatch(SimTime::from_secs(1), &mut rng, Addr(1), Addr(2), vec![9]);
        let (at, d) = out.into_iter().next().unwrap();
        assert_eq!(at, SimTime::from_secs(1) + SimDuration::from_micros(150));
        assert_eq!(d.src, Addr(1));
        assert_eq!(d.dst, Addr(2));
        assert_eq!(d.send_time, SimTime::from_secs(1));
        assert_eq!(net.link_stats(Addr(1), Addr(2)).sent, 1);
        assert_eq!(net.link_stats(Addr(1), Addr(2)).delivered, 1);
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let mut net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut delivered = 0;
        for _ in 0..10_000 {
            if !net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).is_empty() {
                delivered += 1;
            }
        }
        assert!((delivered as f64 / 10_000.0 - 0.7).abs() < 0.02);
        let s = net.link_stats(Addr(1), Addr(2));
        assert_eq!(s.sent, 10_000);
        assert_eq!(s.delivered + s.lost, 10_000);
    }

    #[derive(Debug)]
    struct DelayBig {
        threshold: usize,
    }
    impl Interceptor for DelayBig {
        fn on_message(&mut self, _now: SimTime, meta: &MsgMeta, _ct: &[u8]) -> InterceptAction {
            if meta.size > self.threshold {
                InterceptAction::Delay(SimDuration::from_millis(100))
            } else {
                InterceptAction::Deliver
            }
        }
    }

    #[test]
    fn interceptor_delays_selected_messages() {
        let mut net = fixed_net(100);
        net.add_interceptor(Box::new(DelayBig { threshold: 4 }));
        let mut rng = StdRng::seed_from_u64(2);
        let (small_at, _) = net
            .dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(0), vec![0; 3])
            .into_iter()
            .next()
            .unwrap();
        let (big_at, _) = net
            .dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(0), vec![0; 64])
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(small_at, SimTime::ZERO + SimDuration::from_micros(100));
        assert_eq!(
            big_at,
            SimTime::ZERO + SimDuration::from_micros(100) + SimDuration::from_millis(100)
        );
        let s = net.link_stats(Addr(1), Addr(0));
        assert_eq!(s.attacker_delayed, 1);
        assert_eq!(s.attacker_delay_ns, 100_000_000);
    }

    #[derive(Debug)]
    struct DropAll;
    impl Interceptor for DropAll {
        fn on_message(&mut self, _: SimTime, _: &MsgMeta, _: &[u8]) -> InterceptAction {
            InterceptAction::Drop
        }
    }

    #[test]
    fn interceptor_can_drop() {
        let mut net = fixed_net(100);
        net.add_interceptor(Box::new(DropAll));
        let mut rng = StdRng::seed_from_u64(3);
        assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(0), vec![1]).is_empty());
        assert_eq!(net.link_stats(Addr(1), Addr(0)).attacker_dropped, 1);
        assert_eq!(net.total_stats().sent, 1);
    }

    #[test]
    fn multiple_interceptor_delays_accumulate() {
        let mut net = fixed_net(0);
        net.add_interceptor(Box::new(DelayBig { threshold: 0 }));
        net.add_interceptor(Box::new(DelayBig { threshold: 0 }));
        let mut rng = StdRng::seed_from_u64(4);
        let (at, _) = net
            .dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(0), vec![1])
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[derive(Debug)]
    struct ReplayAll(SimDuration);
    impl Interceptor for ReplayAll {
        fn on_message(&mut self, _: SimTime, _: &MsgMeta, _: &[u8]) -> InterceptAction {
            InterceptAction::Replay(self.0)
        }
    }

    #[test]
    fn replay_produces_two_identical_deliveries() {
        let mut net = fixed_net(100);
        net.add_interceptor(Box::new(ReplayAll(SimDuration::from_secs(2))));
        let mut rng = StdRng::seed_from_u64(5);
        let out = net.dispatch(SimTime::ZERO, &mut rng, Addr(0), Addr(3), vec![7, 8, 9]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, SimTime::ZERO + SimDuration::from_micros(100));
        assert_eq!(out[1].0, out[0].0 + SimDuration::from_secs(2));
        assert_eq!(out[0].1, out[1].1, "the copy is byte-identical");
        assert_eq!(net.link_stats(Addr(0), Addr(3)).attacker_replayed, 1);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        Network::new(DelayModel::Constant(SimDuration::ZERO), 1.5);
    }

    #[test]
    fn total_loss_is_a_blackout() {
        let mut net = Network::new(DelayModel::Constant(SimDuration::ZERO), 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).is_empty());
        }
        assert_eq!(net.link_stats(Addr(1), Addr(2)).lost, 100);
    }

    #[test]
    fn per_link_loss_override_beats_default() {
        let mut net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        net.set_link_loss(Addr(1), Addr(2), 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).is_empty());
        // Reverse direction keeps the lossless default.
        assert_eq!(net.dispatch(SimTime::ZERO, &mut rng, Addr(2), Addr(1), vec![]).len(), 1);
        net.clear_link_loss(Addr(1), Addr(2));
        assert_eq!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).len(), 1);
        assert_eq!(net.link_stats(Addr(1), Addr(2)).lost, 1);
    }

    #[test]
    fn partitions_block_and_heal_per_direction() {
        let mut net = fixed_net(100);
        net.partition_pair(Addr(1), Addr(2));
        let mut rng = StdRng::seed_from_u64(8);
        assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).is_empty());
        assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(2), Addr(1), vec![]).is_empty());
        assert!(net.links[&(Addr(1), Addr(2))].blocked);
        // Asymmetric heal: only 2→1 comes back.
        net.heal_link(Addr(2), Addr(1));
        assert!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).is_empty());
        assert_eq!(net.dispatch(SimTime::ZERO, &mut rng, Addr(2), Addr(1), vec![]).len(), 1);
        net.heal_pair(Addr(1), Addr(2));
        assert_eq!(net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]).len(), 1);
        assert_eq!(net.link_stats(Addr(1), Addr(2)).partition_dropped, 2);
        assert_eq!(net.link_stats(Addr(2), Addr(1)).partition_dropped, 1);
        assert_eq!(net.total_stats().partition_dropped, 3);
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let mut net = fixed_net(100);
        net.set_duplication(1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let out = net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![5]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, out[1].1, "the copy is byte-identical");
        assert_eq!(net.link_stats(Addr(1), Addr(2)).duplicated, 1);
        assert_eq!(net.link_stats(Addr(1), Addr(2)).delivered, 1, "copies are not 'delivered'");
        assert_eq!(net.total_stats().duplicated, 1);
    }

    #[test]
    fn reordering_adds_bounded_extra_delay() {
        let mut net = fixed_net(100);
        net.set_reordering(1.0, SimDuration::from_millis(50));
        let mut rng = StdRng::seed_from_u64(10);
        let base = SimTime::ZERO + SimDuration::from_micros(100);
        for _ in 0..100 {
            let (at, _) = net
                .dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![])
                .into_iter()
                .next()
                .unwrap();
            assert!(at >= base && at <= base + SimDuration::from_millis(50));
        }
        assert_eq!(net.link_stats(Addr(1), Addr(2)).reordered, 100);
        assert_eq!(net.total_stats().reordered, 100);
    }

    #[test]
    fn fault_features_off_leave_the_rng_stream_untouched() {
        let run = |enable: bool| {
            let mut net = fixed_net(100);
            if enable {
                net.set_duplication(0.0);
                net.set_reordering(0.0, SimDuration::from_millis(1));
            }
            let mut rng = StdRng::seed_from_u64(11);
            (0..20)
                .flat_map(|_| net.dispatch(SimTime::ZERO, &mut rng, Addr(1), Addr(2), vec![]))
                .map(|(at, _)| at)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn per_link_stats_rows_are_sorted() {
        let mut net = fixed_net(10);
        let mut rng = StdRng::seed_from_u64(12);
        for (s, d) in [(3, 1), (1, 2), (2, 1), (1, 3)] {
            net.dispatch(SimTime::ZERO, &mut rng, Addr(s), Addr(d), vec![]);
        }
        let rows = net.per_link_stats();
        let pairs: Vec<_> = rows.iter().map(|&(s, d, _)| (s.0, d.0)).collect();
        assert_eq!(pairs, vec![(1, 2), (1, 3), (2, 1), (3, 1)]);
        assert!(rows.iter().all(|&(_, _, st)| st.sent == 1));
    }
}
