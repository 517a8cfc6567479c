//! The live runtime's time source.
//!
//! The live driver measures everything against one process-wide monotonic
//! epoch, so [`proto::Env::now`] is "nanoseconds since cluster start" —
//! the same zero point the simulation driver has, which keeps machine
//! arithmetic (staleness windows, calibration anchors) identical under
//! both drivers.
//!
//! A node's TSC and INC counters are not read from the hardware: real
//! `rdtsc` is not available portably. Each node runs on a
//! `runtime::Host`, the simulation's platform model, evaluated at
//! [`MonoClock::now`] (see [`crate::board::Boards`]).

use sim::SimTime;
use std::time::Instant;

/// The cluster's shared monotonic epoch.
#[derive(Debug, Clone, Copy)]
pub struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// Starts the clock; every driver copies this value so all threads
    /// share one zero point.
    pub fn start() -> Self {
        MonoClock { epoch: Instant::now() }
    }

    /// Monotonic nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The current instant in the machines' time vocabulary.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_clock_is_monotonic() {
        let c = MonoClock::start();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
