//! The live Time Authority: a single-threaded UDP service.
//!
//! Plays the same §III-B role as `authority::TimeAuthority` does in the
//! simulation — its monotonic clock *is* reference time — but the hold
//! jitter needs no model here: requested sleeps are implemented with the
//! driver's read-timeout wait, whose natural OS overshoot is exactly the
//! scheduling-latency effect the simulated TA has to synthesize.

use netsim::Addr;
use sim::{EventQueue, SimTime};
use wire::Message;

use crate::board::Boards;
use crate::clock::MonoClock;
use crate::endpoint::{Endpoint, Recv, MAX_IDLE_NS, MIN_WAIT_NS};

/// Blocking-recv timeouts round up to kernel tick granularity (several
/// milliseconds on a coarse-HZ host), which would bias every hold long
/// and poison the calibration slope. Inside this window of a deadline the
/// TA switches to a non-blocking drain + yield spin instead: holds land
/// within scheduler-wakeup precision of the requested sleep.
const SPIN_WINDOW_NS: u64 = 4_000_000;

/// Per-run statistics of one live TA.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuthorityReport {
    /// Authentic calibration requests received.
    pub requests: u64,
    /// Calibration responses sent.
    pub responses: u64,
}

#[derive(Debug, Clone, Copy)]
struct Hold {
    reply_to: Addr,
    nonce: u64,
    slept_ns: u64,
}

/// Serves calibration requests on `endpoint` until shutdown is requested.
pub(crate) fn run_authority(
    mut endpoint: Endpoint,
    boards: &Boards,
    clock: MonoClock,
) -> AuthorityReport {
    let mut report = AuthorityReport::default();
    // Each pending hold is its own arming, answered at its deadline.
    let mut holds: EventQueue<Hold> = EventQueue::new();

    loop {
        while let Some(hold) = holds.pop_due(clock.now()) {
            respond(&mut endpoint, clock, hold);
            report.responses += 1;
        }
        if boards.shutting_down() {
            break;
        }
        let next_deadline = holds.peek_time();
        let remaining = next_deadline
            .map(|d| d.as_nanos().saturating_sub(clock.now_ns()))
            .unwrap_or(MAX_IDLE_NS);
        if next_deadline.is_some() && remaining <= SPIN_WINDOW_NS {
            // Requests arriving mid-spin stay queued in the socket buffer
            // for the next loop pass; the spin never exceeds the window.
            while holds.peek_time().is_some_and(|d| clock.now() < d) {
                std::thread::yield_now();
            }
            continue;
        }
        let wait = remaining.clamp(MIN_WAIT_NS, MAX_IDLE_NS);
        let Recv::Message { src, msg: Message::CalibrationRequest { nonce, sleep_ns } } =
            endpoint.recv(wait)
        else {
            continue;
        };
        report.requests += 1;
        let hold = Hold { reply_to: src, nonce, slept_ns: sleep_ns };
        if sleep_ns == 0 {
            // Immediate exchange: the recv wakeup latency already
            // happened, answer in-line.
            respond(&mut endpoint, clock, hold);
            report.responses += 1;
        } else {
            holds.arm(SimTime::from_nanos(clock.now_ns().saturating_add(sleep_ns)), hold);
        }
    }
    report
}

fn respond(endpoint: &mut Endpoint, clock: MonoClock, hold: Hold) {
    let msg = Message::CalibrationResponse {
        nonce: hold.nonce,
        ta_time_ns: clock.now_ns(),
        slept_ns: hold.slept_ns,
    };
    endpoint.send(hold.reply_to, &msg);
}
