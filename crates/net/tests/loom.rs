//! Loom model checks for the live runtime's cross-thread state:
//! the [`net::board::Boards`] blackboards, the [`net::TimerQueue`]
//! under a driver-style mutex, and [`proto::NonceWindow`] shared by
//! concurrent front-ends.
//!
//! Off the normal build: run with
//! `RUSTFLAGS="--cfg loom" cargo test -p net --test loom --release`.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use net::{Boards, TimerQueue};
use proto::{ClockState, NonceWindow};
use runtime::Host;
use trace::NodeStateTag;

fn one_node_boards() -> Boards {
    Boards::new(vec![Host::paper_default()])
}

/// The driver's shutdown handshake: a clock published before
/// `request_shutdown` must be visible to any thread that already
/// observes the shutdown flag (SeqCst store after the mutex write).
#[test]
fn clock_published_before_shutdown_is_visible_with_it() {
    loom::model(|| {
        let boards = Arc::new(one_node_boards());
        let b = Arc::clone(&boards);
        let publisher = thread::spawn(move || {
            b.publish_clock(0, ClockState { valid: true, ..ClockState::default() });
            b.request_shutdown();
        });
        if boards.shutting_down() {
            assert!(boards.clock(0).valid, "shutdown visible before the clock preceding it");
        }
        publisher.join().expect("publisher");
        assert!(boards.shutting_down());
        assert!(boards.clock(0).valid);
    });
}

/// Two writers race on one state slot: a concurrent reader sees one of
/// the published values or the initial one — never a torn mix — and the
/// final value is one of the two writes.
#[test]
fn racing_state_publishes_never_tear() {
    loom::model(|| {
        let boards = Arc::new(one_node_boards());
        let (b1, b2) = (Arc::clone(&boards), Arc::clone(&boards));
        let t1 = thread::spawn(move || b1.publish_state(0, Some(NodeStateTag::Ok)));
        let t2 = thread::spawn(move || b2.publish_state(0, Some(NodeStateTag::Tainted)));
        let seen = boards.state(0);
        assert!(
            matches!(seen, None | Some(NodeStateTag::Ok) | Some(NodeStateTag::Tainted)),
            "torn read: {seen:?}"
        );
        t1.join().expect("writer 1");
        t2.join().expect("writer 2");
        let last = boards.state(0);
        assert!(
            matches!(last, Some(NodeStateTag::Ok) | Some(NodeStateTag::Tainted)),
            "a write was lost: {last:?}"
        );
    });
}

/// Tombstone cancellation under contention: whatever order the arm and
/// the cancel interleave, token 1 never fires after its cancel was
/// issued by the same thread that armed it, and token 2 always fires.
#[test]
fn timer_queue_cancel_race_keeps_tombstone_contract() {
    loom::model(|| {
        let queue = Arc::new(Mutex::new(TimerQueue::new()));
        let (qa, qb) = (Arc::clone(&queue), Arc::clone(&queue));
        let canceller = thread::spawn(move || {
            let id = qa.lock().expect("queue").arm(1, 100);
            qa.lock().expect("queue").cancel(id);
        });
        let armer = thread::spawn(move || qb.lock().expect("queue").arm(2, 50));
        canceller.join().expect("canceller");
        armer.join().expect("armer");
        let mut q = queue.lock().expect("queue");
        assert_eq!(q.pop_due(200), Some(2));
        assert_eq!(q.pop_due(200), None, "cancelled token fired");
        assert!(q.is_empty());
    });
}

/// Concurrent re-arms of one token: exactly one firing survives, at one
/// of the two racing deadlines (the armed-map entry of the loser is a
/// heap tombstone), and cancelling the loser's id leaves it standing.
#[test]
fn timer_queue_concurrent_rearms_fire_exactly_once() {
    loom::model(|| {
        let queue = Arc::new(Mutex::new(TimerQueue::new()));
        let (qa, qb) = (Arc::clone(&queue), Arc::clone(&queue));
        let t1 = thread::spawn(move || qa.lock().expect("queue").arm(7, 100));
        let t2 = thread::spawn(move || qb.lock().expect("queue").arm(7, 50));
        let a = t1.join().expect("armer 1");
        let b = t2.join().expect("armer 2");
        let mut q = queue.lock().expect("queue");
        // Arming sequences are issued in lock order: the lower one lost.
        q.cancel(if a.handle() < b.handle() { a } else { b });
        assert_eq!(q.pop_due(200), Some(7));
        assert_eq!(q.pop_due(200), None, "a superseded arm fired twice");
        assert!(q.is_empty());
    });
}

/// Duplicate-response race: two handler threads race to consume one
/// nonce; exactly one wins, and unrelated nonces stay consumable.
#[test]
fn nonce_window_consumes_each_nonce_exactly_once() {
    loom::model(|| {
        let window = Arc::new(Mutex::new(NonceWindow::new(4)));
        {
            let mut w = window.lock().expect("window");
            w.insert(5);
            w.insert(6);
        }
        let (wa, wb) = (Arc::clone(&window), Arc::clone(&window));
        let t1 = thread::spawn(move || wa.lock().expect("window").take(5));
        let t2 = thread::spawn(move || wb.lock().expect("window").take(5));
        let first = t1.join().expect("taker 1");
        let second = t2.join().expect("taker 2");
        assert!(first ^ second, "a duplicated response must be consumed exactly once");
        let mut w = window.lock().expect("window");
        assert!(w.take(6), "unrelated nonce lost");
        assert!(!w.take(5), "consumed nonce matched again");
    });
}
