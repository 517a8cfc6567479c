//! One live address: its socket, sessions, directory view and scratch.
//!
//! Every protocol message on the live fabric is one AEAD-sealed UDP
//! datagram in the [`crate::frame`] format. This module is the only place
//! in the crate that puts one on a socket or takes one off: the machine
//! driver, the Time Authority and the blocking client all ride
//! [`Endpoint::send`] and [`Endpoint::recv`], so "no panic reachable from
//! network input" and the typed pre-machine drops hold for all three.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use netsim::Addr;
use runtime::KeyTable;
use trace::DropReason;
use wire::Message;

use crate::frame::{frame_into, parse_frame};

/// Shortest socket wait (keeps timer precision ~tens of µs).
pub(crate) const MIN_WAIT_NS: u64 = 50_000;
/// Longest socket wait of a driver loop (bounds shutdown latency).
pub(crate) const MAX_IDLE_NS: u64 = 2_000_000;
/// Receive buffer size; no protocol message seals to more.
const MAX_DATAGRAM: usize = 2048;

/// What one [`Endpoint::recv`] wait produced.
#[derive(Debug, PartialEq)]
pub(crate) enum Recv {
    /// An authentic, decoded message from `src`.
    Message {
        /// The authenticated sender.
        src: Addr,
        /// The decoded message.
        msg: Message,
    },
    /// A datagram arrived and was discarded before decoding succeeded.
    Dropped(DropReason),
    /// Nothing arrived within the wait (or a transient socket error: UDP
    /// semantics, drop and go on).
    Idle,
}

/// A bound live address.
#[derive(Debug)]
pub(crate) struct Endpoint {
    me: Addr,
    socket: UdpSocket,
    keys: KeyTable,
    directory: Arc<HashMap<Addr, SocketAddr>>,
    plain: Vec<u8>,
    wire_buf: Vec<u8>,
    open_buf: Vec<u8>,
    /// `MAX_DATAGRAM` zeroed bytes, on the heap: an endpoint is moved into
    /// its thread, and 2 KiB inline cost ~8 µs of a 110 µs bring-up.
    buf: Vec<u8>,
}

impl Endpoint {
    /// `me`'s endpoint over its bound `socket` (its directory entry) and
    /// its AEAD sessions: a seeded table derives one on the first frame to
    /// or from a linked address in `directory`.
    pub(crate) fn new(
        me: Addr,
        socket: UdpSocket,
        keys: KeyTable,
        directory: Arc<HashMap<Addr, SocketAddr>>,
    ) -> Self {
        Endpoint {
            me,
            socket,
            keys,
            directory,
            plain: Vec::new(),
            wire_buf: Vec::new(),
            open_buf: Vec::new(),
            buf: vec![0u8; MAX_DATAGRAM],
        }
    }

    /// True when `dst` has a directory entry.
    pub(crate) fn knows(&self, dst: Addr) -> bool {
        self.directory.contains_key(&dst)
    }

    /// Seals `msg` for `dst` and sends it as one datagram. False when the
    /// pair has no session and derives none, `dst` is not in the
    /// directory, or the socket refused the datagram.
    pub(crate) fn send(&mut self, dst: Addr, msg: &Message) -> bool {
        if !self.keys.has_session(self.me, dst) {
            return false;
        }
        let Some(&target) = self.directory.get(&dst) else {
            return false;
        };
        frame_into(&mut self.keys, self.me, dst, msg, &mut self.plain, &mut self.wire_buf);
        self.socket.send_to(&self.wire_buf, target).is_ok()
    }

    /// Blocks for at most `wait_ns` (floored to [`MIN_WAIT_NS`]) for one
    /// datagram and authenticates and decodes it.
    pub(crate) fn recv(&mut self, wait_ns: u64) -> Recv {
        let wait = Duration::from_nanos(wait_ns.max(MIN_WAIT_NS));
        // tt-lint: allow(panic-surface) — not the decode path: `wait` is
        // floored to MIN_WAIT_NS above, so the only failure is a dead fd,
        // which no amount of network input can cause.
        self.socket.set_read_timeout(Some(wait)).expect("nonzero read timeout");
        let Ok((n, _)) = self.socket.recv_from(&mut self.buf) else {
            return Recv::Idle;
        };
        let Some((src, sealed)) = parse_frame(&self.buf[..n]) else {
            return Recv::Dropped(DropReason::Frame);
        };
        self.open_buf.clear();
        // A missing session fails the first open; the first frame from a
        // linked directory address derives it and is opened again.
        let mut open = |keys: &KeyTable| keys.open_into(self.me, src, sealed, &mut self.open_buf);
        if open(&self.keys).is_err()
            && !(self.directory.contains_key(&src)
                && self.keys.derive(self.me, src)
                && open(&self.keys).is_ok())
        {
            return Recv::Dropped(DropReason::Auth);
        }
        match Message::decode(&self.open_buf) {
            Ok(msg) => Recv::Message { src, msg },
            Err(_) => Recv::Dropped(DropReason::Decode),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The three datagrams an endpoint must drop, in [`DropReason`] order, as
    /// `src` would have to put them on the wire towards `dst`: a 1-byte
    /// runt, a real frame whose cleartext prefix claims another sender,
    /// and an authentic seal over bytes that are not a [`Message`].
    pub(crate) fn hostile_datagrams(keys: &mut KeyTable, src: Addr, dst: Addr) -> [Vec<u8>; 3] {
        let (mut plain, mut forged) = (Vec::new(), Vec::new());
        frame_into(keys, src, dst, &Message::PeerTimeRequest { nonce: 1 }, &mut plain, &mut forged);
        forged[0..2].copy_from_slice(&src.0.wrapping_add(1).to_be_bytes());
        let mut garbage = src.0.to_be_bytes().to_vec();
        keys.seal_into(src, dst, &[0xff; 5], &mut garbage);
        [vec![0x07], forged, garbage]
    }

    /// A raw socket and key table playing `src` against a real endpoint
    /// at `dst`, plus the directory naming both.
    pub(crate) fn raw_peer(
        src: Addr,
        dst: Addr,
    ) -> (UdpSocket, KeyTable, Arc<HashMap<Addr, SocketAddr>>, Endpoint) {
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let directory = Arc::new(HashMap::from([
            (src, raw.local_addr().expect("addr")),
            (dst, socket.local_addr().expect("addr")),
        ]));
        let mut keys = [KeyTable::new(), KeyTable::new()];
        for k in &mut keys {
            k.provision_pair(src, dst, [7u8; 32]);
        }
        let [keys_src, keys_dst] = keys;
        let endpoint = Endpoint::new(dst, socket, keys_dst, Arc::clone(&directory));
        (raw, keys_src, directory, endpoint)
    }

    #[test]
    fn each_bad_datagram_is_a_typed_drop_and_a_good_one_still_arrives() {
        let (a, b) = (Addr(10), Addr(20));
        let (raw, mut keys_a, directory, mut endpoint) = raw_peer(a, b);
        let target = directory[&b];
        let second = 1_000_000_000;

        assert_eq!(endpoint.recv(0), Recv::Idle);
        for (datagram, kind) in hostile_datagrams(&mut keys_a, a, b).iter().zip([
            DropReason::Frame,
            DropReason::Auth,
            DropReason::Decode,
        ]) {
            raw.send_to(datagram, target).expect("send");
            assert_eq!(endpoint.recv(second), Recv::Dropped(kind));
        }

        // The same socket then carries a good frame in each direction.
        let mut peer = Endpoint::new(a, raw, keys_a, directory);
        let msg = Message::PeerTimeRequest { nonce: 77 };
        assert!(peer.send(b, &msg));
        assert_eq!(endpoint.recv(second), Recv::Message { src: a, msg });
        let reply = Message::PeerTimeResponse { nonce: 77, timestamp_ns: 5 };
        assert!(endpoint.send(a, &reply));
        assert!(!endpoint.send(Addr(30), &reply), "no session, no directory entry");
        assert_eq!(peer.recv(second), Recv::Message { src: b, msg: reply });
    }

    #[test]
    fn a_session_derives_only_for_a_linked_address_in_the_directory() {
        use proto::{client_addr, frontend_addr, generator_addr, node_addr};
        let seed = 11;
        let (fe, node, client, outsider) =
            (frontend_addr(0), node_addr(0), client_addr(0), generator_addr(0));
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (raw_at, target) =
            (raw.local_addr().expect("addr"), socket.local_addr().expect("addr"));
        let directory = Arc::new(HashMap::from([(fe, target), (node, raw_at), (client, raw_at)]));
        let mut endpoint = Endpoint::new(fe, socket, KeyTable::seeded(seed), directory);
        let msg = Message::ServeRequest { nonce: 1, accept_degraded: true };
        // An authentic frame from `src`: sealed under the pair's run key.
        let authentic = |src: Addr| {
            let mut keys = KeyTable::new();
            keys.provision_pair(src, fe, runtime::pair_key(seed, src, fe));
            let (mut plain, mut wire) = (Vec::new(), Vec::new());
            frame_into(&mut keys, src, fe, &msg, &mut plain, &mut wire);
            wire
        };
        let second = 1_000_000_000;

        // A node is in the directory but has no channel to a front-end.
        raw.send_to(&authentic(node), target).expect("send");
        assert_eq!(endpoint.recv(second), Recv::Dropped(DropReason::Auth));
        assert!(!endpoint.keys.has_session(fe, node));
        // A generator is linked but outside the directory: nothing derives.
        raw.send_to(&authentic(outsider), target).expect("send");
        assert_eq!(endpoint.recv(second), Recv::Dropped(DropReason::Auth));
        assert!(endpoint.keys.derive(fe, outsider), "the dropped frame derived a session");
        // A client is both: its first frame derives the session and lands,
        // and the reply opens under the client's own seeded table.
        raw.send_to(&authentic(client), target).expect("send");
        assert_eq!(endpoint.recv(second), Recv::Message { src: client, msg });
        let reply = Message::ServeResponse { nonce: 1, outcome: wire::ServeOutcome::Time(5) };
        assert!(endpoint.send(client, &reply));
        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, _) = raw.recv_from(&mut buf).expect("reply");
        let (src, sealed) = parse_frame(&buf[..n]).expect("framed");
        let mut keys = KeyTable::seeded(seed);
        assert!(keys.derive(client, src));
        let opened = keys.open(client, src, sealed).expect("authentic reply");
        assert_eq!(Message::decode(&opened), Ok(reply));
    }
}
