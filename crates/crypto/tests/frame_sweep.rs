//! A deterministic sweep over every `(aad_len, payload_len)` the fused
//! frame kernel treats differently, so each boundary is pinned rather
//! than left to a random length landing on it: the head flight that
//! carries `E(J0)` (payloads up to 48 bytes) against the later flights
//! (64 bytes each), a partial against a full last block in either
//! section, and a GHASH of at most `POWERS` = 8 blocks (one reduction)
//! against a longer one.
//!
//! At every length: the accelerated backend emits the portable
//! backend's bytes, both open them, and one flipped bit in the
//! ciphertext, the tag or the AAD is rejected with `out` untouched.

use tt_crypto::{Aes256Gcm, CryptoBackend};

const MAX_AAD: usize = 33;
const MAX_PAYLOAD: usize = 130;

/// Non-repeating filler, so a block swapped or skipped shows.
fn filler(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

#[test]
fn every_frame_shape_matches_the_portable_backend_and_rejects_tampering() {
    let key: [u8; 32] = core::array::from_fn(|i| 0xA5 ^ (i as u8).wrapping_mul(7));
    let nonce = [0xC3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
    let soft = Aes256Gcm::with_backend(&key, CryptoBackend::Soft);
    let fast = Aes256Gcm::with_backend(&key, CryptoBackend::active());
    let aad_bytes = filler(MAX_AAD, 0x11);
    let payload = filler(MAX_PAYLOAD, 0x77);
    const PREFIX: [u8; 3] = [0xAA, 0xBB, 0xCC];
    let mut sealed = Vec::new();
    let mut out = Vec::new();
    for aad_len in 0..=MAX_AAD {
        let aad = &aad_bytes[..aad_len];
        for len in 0..=MAX_PAYLOAD {
            let at = format!("aad_len={aad_len} payload_len={len}");
            let pt = &payload[..len];
            let want = soft.seal(&nonce, aad, pt);
            sealed.clear();
            fast.seal_into(&nonce, aad, pt, &mut sealed);
            assert_eq!(sealed, want, "{at}");
            for aead in [&soft, &fast] {
                out.clear();
                out.extend_from_slice(&PREFIX);
                aead.open_into(&nonce, aad, &sealed, &mut out).unwrap();
                assert_eq!(&out[..3], &PREFIX, "{at}");
                assert_eq!(&out[3..], pt, "{at}");
            }
            // One flipped bit in: the first and last ciphertext byte, the
            // first and last tag byte (an empty payload has only a tag),
            // the first and last AAD byte.
            let mut rejects = |aad: &[u8], sealed: &[u8], what: &str| {
                out.clear();
                out.extend_from_slice(&PREFIX);
                assert!(fast.open_into(&nonce, aad, sealed, &mut out).is_err(), "{what} {at}");
                assert_eq!(out, PREFIX, "{what} {at}");
            };
            for spot in [0, len.saturating_sub(1), len, len + 15] {
                sealed[spot] ^= 0x10;
                rejects(aad, &sealed, "sealed byte");
                sealed[spot] ^= 0x10;
            }
            if aad_len > 0 {
                let mut bad = aad.to_vec();
                for spot in [0, aad_len - 1] {
                    bad[spot] ^= 0x40;
                    rejects(&bad, &sealed, "aad byte");
                    bad[spot] ^= 0x40;
                }
                // Moving the section boundary is tampering too.
                rejects(&aad[..aad_len - 1], &sealed, "aad shortened");
            }
            assert_eq!(sealed, want, "{at}: sweep restored the frame");
        }
    }
}
