//! Datagram framing for the live fabric.
//!
//! A live datagram is `src address (u16 BE) || sealed payload`. The
//! address prefix is cleartext routing metadata only: the AEAD seal binds
//! the true (src, dst) pair into its associated data, so a datagram
//! replayed under a forged prefix fails authentication at
//! [`runtime::KeyTable::open_into`] exactly like in the simulated fabric.

use netsim::Addr;
use runtime::KeyTable;
use wire::Message;

/// Builds one wire datagram from `src` to `dst` into `out`, using
/// `plain` as the cleartext scratch buffer.
///
/// # Panics
///
/// Panics when the pair has no key and derives none (a wiring bug).
pub fn frame_into(
    keys: &mut KeyTable,
    src: Addr,
    dst: Addr,
    msg: &Message,
    plain: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    plain.clear();
    msg.encode_into(plain);
    out.clear();
    out.extend_from_slice(&src.0.to_be_bytes());
    keys.seal_into(src, dst, plain, out);
}

/// Splits a received datagram into its claimed source and sealed payload.
/// Returns `None` for runts that cannot even carry the prefix.
pub fn parse_frame(buf: &[u8]) -> Option<(Addr, &[u8])> {
    if buf.len() < 2 {
        return None;
    }
    let src = Addr(u16::from_be_bytes([buf[0], buf[1]]));
    Some((src, &buf[2..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_key_table() {
        let mut keys = KeyTable::new();
        keys.provision_pair(Addr(1), Addr(2), [9u8; 32]);
        let msg = Message::PeerTimeRequest { nonce: 77 };
        let (mut plain, mut wire) = (Vec::new(), Vec::new());
        frame_into(&mut keys, Addr(1), Addr(2), &msg, &mut plain, &mut wire);

        let (src, sealed) = parse_frame(&wire).expect("framed");
        assert_eq!(src, Addr(1));
        let opened = keys.open(Addr(2), src, sealed).expect("authentic");
        assert_eq!(Message::decode(&opened), Ok(msg));
    }

    #[test]
    fn forged_source_prefix_fails_authentication() {
        let mut keys = KeyTable::new();
        keys.provision_pair(Addr(1), Addr(2), [9u8; 32]);
        keys.provision_pair(Addr(3), Addr(2), [9u8; 32]);
        let msg = Message::PeerTimeRequest { nonce: 1 };
        let (mut plain, mut wire) = (Vec::new(), Vec::new());
        frame_into(&mut keys, Addr(1), Addr(2), &msg, &mut plain, &mut wire);
        // Rewrite the cleartext prefix to claim node 3 sent it.
        wire[0..2].copy_from_slice(&3u16.to_be_bytes());
        let (src, sealed) = parse_frame(&wire).expect("framed");
        assert_eq!(src, Addr(3));
        assert!(keys.open(Addr(2), src, sealed).is_err(), "AAD must reject the forged link");
    }

    #[test]
    fn runt_datagrams_are_rejected() {
        assert!(parse_frame(&[]).is_none());
        assert!(parse_frame(&[1]).is_none());
    }
}
