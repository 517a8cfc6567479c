//! Shared cluster state boards.
//!
//! The simulation keeps published clocks, node states and host platforms
//! in the single `World`; the live runtime shares them across threads
//! here. Everything a machine can observe through [`proto::Env`] —
//! another node's published clock, a co-located node's protocol state,
//! its host's TSC and INC — lives on these boards; everything else is
//! thread-private.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;

use proto::ClockState;
use runtime::Host;
use trace::NodeStateTag;

/// Cross-thread observable state of one live cluster.
#[derive(Debug)]
pub struct Boards {
    clocks: Vec<Mutex<ClockState>>,
    states: Vec<Mutex<Option<NodeStateTag>>>,
    /// Read-only: nothing manipulates a live host yet.
    hosts: Vec<Host>,
    shutdown: AtomicBool,
}

impl Boards {
    /// Boards for a cluster whose node `i` runs on `hosts[i]`.
    pub fn new(hosts: Vec<Host>) -> Self {
        let n = hosts.len();
        Boards {
            clocks: (0..n).map(|_| Mutex::new(ClockState::default())).collect(),
            states: (0..n).map(|_| Mutex::new(None)).collect(),
            hosts,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of nodes on the boards.
    pub fn nodes(&self) -> usize {
        self.hosts.len()
    }

    /// Node `i`'s platform, read at monotonic time by the driver.
    pub fn host(&self, i: usize) -> &Host {
        &self.hosts[i]
    }

    /// Publishes node `i`'s clock parameters.
    pub fn publish_clock(&self, i: usize, clock: ClockState) {
        *self.clocks[i].lock().expect("clock board lock") = clock;
    }

    /// Node `i`'s currently published clock.
    pub fn clock(&self, i: usize) -> ClockState {
        *self.clocks[i].lock().expect("clock board lock")
    }

    /// Publishes node `i`'s protocol state for co-located infrastructure.
    pub fn publish_state(&self, i: usize, state: Option<NodeStateTag>) {
        *self.states[i].lock().expect("state board lock") = state;
    }

    /// Node `i`'s published protocol state.
    pub fn state(&self, i: usize) -> Option<NodeStateTag> {
        *self.states[i].lock().expect("state board lock")
    }

    /// Asks every driver loop to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown was requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_publish_and_read_back() {
        let boards = Boards::new(vec![Host::paper_default(); 2]);
        assert_eq!(boards.nodes(), 2);
        assert!(!boards.clock(0).valid);
        assert_eq!(boards.state(1), None);

        boards.publish_clock(0, ClockState { valid: true, ..ClockState::default() });
        boards.publish_state(1, Some(NodeStateTag::Ok));
        assert!(boards.clock(0).valid);
        assert_eq!(boards.state(1), Some(NodeStateTag::Ok));

        assert!(!boards.shutting_down());
        boards.request_shutdown();
        assert!(boards.shutting_down());
    }
}
