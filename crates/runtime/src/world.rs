//! The shared simulation world: hosts, network, keys, clock blackboard,
//! measurement recorder.

use netsim::{Addr, FastMap, Network};
use rand::rngs::StdRng;
use sim::{ActorId, SimDuration, SimTime};
use trace::Recorder;
use tsc::{CoreFrequency, IncModel, TscClock};

use crate::keys::KeyTable;

pub use proto::{ClockState, Lie};

/// Reusable buffers for the messaging hot path, owned by the world so the
/// steady state of encode → seal → dispatch → open never allocates.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Encoded plaintext of the message being sealed or opened.
    pub plain: Vec<u8>,
    /// Sealed wire bytes of the message being sent.
    pub wire: Vec<u8>,
    /// Deliveries staged by the fabric for the message being sent.
    pub deliveries: Vec<(SimTime, netsim::Delivery)>,
}

/// One node's physical platform: its TSC, its monitoring core's frequency,
/// and the INC-counting behaviour on that core.
#[derive(Debug, Clone)]
pub struct Host {
    /// The (manipulable) TimeStamp Counter.
    pub tsc: TscClock,
    /// The monitoring core's frequency model.
    pub core: CoreFrequency,
    /// The INC-counter model on that core.
    pub inc: IncModel,
}

impl Host {
    /// The paper's platform: 2899.999 MHz TSC, performance governor at
    /// 3500 MHz, default INC model.
    pub fn paper_default() -> Self {
        Host {
            tsc: TscClock::paper_default(),
            core: CoreFrequency::paper_default(),
            inc: IncModel::default(),
        }
    }

    /// The TSC value at reference instant `now` — [`proto::Env::read_tsc`]
    /// under either driver.
    pub fn read_tsc(&self, now: SimTime) -> u64 {
        self.tsc.read(now)
    }

    /// One INC count over an uninterrupted `wall` window at the monitoring
    /// core's current frequency — [`proto::Env::sample_inc`] under either
    /// driver.
    pub fn sample_inc(&self, wall: SimDuration, rng: &mut StdRng) -> u64 {
        self.inc.measure(wall, self.core.current_hz(), rng)
    }
}

/// The shared environment of one simulation run.
#[derive(Debug)]
pub struct World {
    /// The datagram fabric (with any attacker interceptors installed).
    pub net: Network,
    /// Per-node platforms; index `i` belongs to the node at `Addr(i + 1)`.
    pub hosts: Vec<Host>,
    /// Per-node published clock parameters (same indexing as `hosts`).
    pub clocks: Vec<ClockState>,
    /// All measurements of the run.
    pub recorder: Recorder,
    /// Pairwise AEAD sessions.
    pub keys: KeyTable,
    /// Per-node active lying-node fault (same indexing as `hosts`).
    /// `None` everywhere unless a fault plan injects a [`Lie`].
    pub lies: Vec<Option<Lie>>,
    actors: FastMap<Addr, ActorId>,
    /// Messaging hot-path scratch buffers (see [`Scratch`]).
    pub(crate) scratch: Scratch,
}

impl World {
    /// Creates a world for `hosts.len()` nodes over `net`.
    pub fn new(net: Network, hosts: Vec<Host>) -> Self {
        let n = hosts.len();
        World {
            net,
            hosts,
            clocks: vec![ClockState::default(); n],
            recorder: Recorder::for_nodes(n),
            keys: KeyTable::new(),
            lies: vec![None; n],
            actors: FastMap::default(),
            scratch: Scratch::default(),
        }
    }

    /// Number of Triad nodes.
    pub fn node_count(&self) -> usize {
        self.hosts.len()
    }

    /// The network address of node index `i` (0-based index, 1-based addr).
    pub fn node_addr(i: usize) -> Addr {
        Addr(u16::try_from(i + 1).expect("node count fits u16"))
    }

    /// The Time Authority's address.
    pub const TA_ADDR: Addr = Addr(0);

    /// Host of the node at `addr`, or `None` for the TA address, client
    /// addresses, and anything past the cluster.
    pub fn try_host(&self, addr: Addr) -> Option<&Host> {
        let index = (addr.0 as usize).checked_sub(1)?;
        self.hosts.get(index)
    }

    /// Mutable counterpart of [`World::try_host`].
    pub fn try_host_mut(&mut self, addr: Addr) -> Option<&mut Host> {
        let index = (addr.0 as usize).checked_sub(1)?;
        self.hosts.get_mut(index)
    }

    /// Host of the node at `addr`.
    ///
    /// # Panics
    ///
    /// Panics for the TA address or unknown nodes; use [`World::try_host`]
    /// for fallible access.
    pub fn host(&self, addr: Addr) -> &Host {
        assert!(addr.0 >= 1, "the TA has no enclave host");
        let n = self.node_count();
        self.try_host(addr).unwrap_or_else(|| {
            panic!("no host for {addr}: cluster has {n} node(s) (Addr(1)..=Addr({n}))")
        })
    }

    /// Mutable host access (TSC manipulation by the attacker).
    ///
    /// # Panics
    ///
    /// Panics for the TA address or unknown nodes; use
    /// [`World::try_host_mut`] for fallible access.
    pub fn host_mut(&mut self, addr: Addr) -> &mut Host {
        assert!(addr.0 >= 1, "the TA has no enclave host");
        let n = self.node_count();
        self.try_host_mut(addr).unwrap_or_else(|| {
            panic!("no host for {addr}: cluster has {n} node(s) (Addr(1)..=Addr({n}))")
        })
    }

    /// Binds a network address to the actor that owns it.
    pub fn register_actor(&mut self, addr: Addr, actor: ActorId) {
        let prev = self.actors.insert(addr, actor);
        assert!(prev.is_none(), "{addr} registered twice");
    }

    /// The actor owning `addr`, if one is registered.
    pub fn try_actor_of(&self, addr: Addr) -> Option<ActorId> {
        self.actors.get(&addr).copied()
    }

    /// The actor owning `addr`.
    ///
    /// # Panics
    ///
    /// Panics for unregistered addresses; use [`World::try_actor_of`] for
    /// fallible access.
    pub fn actor_of(&self, addr: Addr) -> ActorId {
        self.try_actor_of(addr).unwrap_or_else(|| panic!("no actor registered for {addr}"))
    }

    /// Provisions pairwise keys: every node with the TA, and every node
    /// pair, derived deterministically from `seed`.
    pub fn provision_all_keys(&mut self, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6b65_7973); // "keys"
        let n = self.node_count();
        let mut endpoints = vec![Self::TA_ADDR];
        endpoints.extend((0..n).map(Self::node_addr));
        for i in 0..endpoints.len() {
            for j in (i + 1)..endpoints.len() {
                let mut key = [0u8; 32];
                rng.fill(&mut key);
                self.keys.provision_pair(endpoints[i], endpoints[j], key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::DelayModel;

    fn world(n: usize) -> World {
        World::new(
            Network::new(DelayModel::Constant(SimDuration::from_micros(100)), 0.0),
            (0..n).map(|_| Host::paper_default()).collect(),
        )
    }

    #[test]
    fn addressing_conventions() {
        assert_eq!(World::node_addr(0), Addr(1));
        assert_eq!(World::node_addr(2), Addr(3));
        assert_eq!(World::TA_ADDR, Addr(0));
        let w = world(3);
        assert_eq!(w.node_count(), 3);
    }

    #[test]
    fn clock_state_before_and_after_calibration() {
        let c = ClockState::default();
        assert_eq!(c.now_ns(123), None);
        let c = ClockState {
            valid: true,
            anchor_ref_ns: 1e9,
            anchor_ticks: 2_900_000_000,
            f_calib_hz: 2.9e9,
            uncertainty_ns: 0.0,
        };
        // One second of ticks past the anchor → exactly one more second.
        let ns = c.now_ns(2 * 2_900_000_000).unwrap();
        assert!((ns - 2e9).abs() < 1.0);
        // Ticks *before* the anchor also evaluate (negative progress).
        let ns = c.now_ns(0).unwrap();
        assert!((ns - 0.0).abs() < 1.0);
    }

    #[test]
    fn lies_default_honest_and_skew_alternates() {
        let w = world(3);
        assert!(w.lies.iter().all(Option::is_none));
        let skew = Lie { offset_ns: 250, equivocate: false };
        assert_eq!(skew.skew_ns(0), 250);
        assert_eq!(skew.skew_ns(1), 250);
        let equiv = Lie { offset_ns: 250, equivocate: true };
        assert_eq!(equiv.skew_ns(0), 250);
        assert_eq!(equiv.skew_ns(1), -250);
        assert_eq!(equiv.skew_ns(2), 250);
    }

    #[test]
    fn tsc_access_via_addresses() {
        let w = world(2);
        let t = SimTime::from_secs(1);
        let ticks = w.host(Addr(1)).read_tsc(t);
        assert!((ticks as f64 - 2.899999e9).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "no enclave host")]
    fn ta_has_no_host() {
        let w = world(1);
        let _ = w.host(Addr(0));
    }

    #[test]
    #[should_panic(expected = "no host for addr5: cluster has 2 node(s)")]
    fn out_of_range_host_names_the_bounds() {
        let w = world(2);
        let _ = w.host(Addr(5));
    }

    #[test]
    fn try_host_is_total() {
        let mut w = world(2);
        assert!(w.try_host(Addr(0)).is_none());
        assert!(w.try_host(Addr(1)).is_some());
        assert!(w.try_host(Addr(2)).is_some());
        assert!(w.try_host(Addr(3)).is_none());
        assert!(w.try_host_mut(Addr(0)).is_none());
        assert!(w.try_host_mut(Addr(2)).is_some());
        assert!(w.try_host_mut(Addr(9)).is_none());
    }

    #[test]
    fn actor_registration() {
        let mut w = world(1);
        // ActorIds cannot be fabricated outside `sim`; drive a tiny sim to
        // obtain real ones.
        let mut s: sim::Simulation<(), ()> = sim::Simulation::new((), 0);
        struct Noop;
        impl sim::Actor<(), ()> for Noop {
            fn on_event(&mut self, _: &mut sim::Ctx<'_, (), ()>, _: ()) {}
        }
        let id = s.add_actor(Box::new(Noop));
        assert_eq!(w.try_actor_of(Addr(1)), None);
        w.register_actor(Addr(1), id);
        assert_eq!(w.actor_of(Addr(1)), id);
    }

    #[test]
    fn key_provisioning_covers_all_pairs() {
        let mut w = world(3);
        w.provision_all_keys(42);
        for i in 0..3 {
            let a = World::node_addr(i);
            assert!(w.keys.has_session(a, World::TA_ADDR));
            assert!(w.keys.has_session(World::TA_ADDR, a));
            for j in 0..3 {
                if i != j {
                    assert!(w.keys.has_session(a, World::node_addr(j)));
                }
            }
        }
    }
}
