//! Loom model checks for the live runtime's cross-thread state:
//! the [`net::board::Boards`] blackboards and [`proto::NonceWindow`]
//! shared by concurrent front-ends. Timers are not cross-thread state:
//! each driver thread owns its `sim::EventQueue`.
//!
//! Off the normal build: run with
//! `RUSTFLAGS="--cfg loom" cargo test -p net --test loom --release`.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use net::Boards;
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
