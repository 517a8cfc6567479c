//! The shared simulation world: hosts, network, keys, clock blackboard,
//! measurement recorder.

use netsim::{Addr, FastMap, Network};
use rand::rngs::StdRng;
use sim::{ActorId, SimDuration, SimTime};
use trace::Recorder;
use tsc::{CoreFrequency, IncModel, TscClock};

use crate::keys::KeyTable;

pub use proto::ClockState;

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
    /// Per-node platforms; index `i` belongs to [`proto::node_addr`]`(i)`.
    pub hosts: Vec<Host>,
    /// Per-node published clock parameters (same indexing as `hosts`).
    pub clocks: Vec<ClockState>,
    /// All measurements of the run.
    pub recorder: Recorder,
    /// Pairwise AEAD sessions, derived on first use once seeded.
    pub keys: KeyTable,
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
            actors: FastMap::default(),
            scratch: Scratch::default(),
        }
    }

    /// Number of Triad nodes.
    pub fn node_count(&self) -> usize {
        self.hosts.len()
    }

    /// [`proto::node_addr`], under the name `bench/src/layers.rs` still
    /// calls it by; every other caller uses `proto`'s.
    pub fn node_addr(i: usize) -> Addr {
        proto::node_addr(i)
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

    /// Seeds a fresh key table: each [`proto::linked`] pair derives its
    /// session from `seed` the first time one side seals to the other.
    pub fn provision_all_keys(&mut self, seed: u64) {
        self.keys = KeyTable::seeded(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::DelayModel;
    use proto::{frontend_addr, node_addr, TA_ADDR};

    fn world(n: usize) -> World {
        World::new(
            Network::new(DelayModel::Constant(SimDuration::from_micros(100)), 0.0),
            (0..n).map(|_| Host::paper_default()).collect(),
        )
    }

    #[test]
    fn addressing_conventions() {
        assert_eq!(node_addr(0), Addr(1));
        assert_eq!(node_addr(2), Addr(3));
        assert_eq!(TA_ADDR, Addr(0));
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
            let a = node_addr(i);
            assert!(w.keys.has_session(a, TA_ADDR));
            assert!(w.keys.has_session(TA_ADDR, a));
            for j in 0..3 {
                if i != j {
                    assert!(w.keys.has_session(a, node_addr(j)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no key provisioned for")]
    fn sealing_to_an_unlinked_pair_panics() {
        let mut w = world(1);
        w.provision_all_keys(42);
        w.keys.seal(node_addr(0), frontend_addr(0), b"no channel");
    }
}
