//! Property-based tests: AEAD round-trip and tamper-rejection
//! invariants, plus the backend differential properties — the
//! accelerated path must be byte-identical to the table path on every
//! key, nonce, AAD, and length, and batch sealing must be byte-identical
//! to sequential sealing on either backend. `frame_sweep.rs` walks the
//! kernel's length boundaries exhaustively.

use proptest::prelude::*;
use tt_crypto::{gf_mul, Aes256Gcm, CryptoBackend, GhashKey, SealingKey};

/// Splits `plain` into the part ranges a batch call expects.
fn ranges_of(msgs: &[Vec<u8>]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let mut plain = Vec::new();
    let mut parts = Vec::new();
    for m in msgs {
        let start = plain.len();
        plain.extend_from_slice(m);
        parts.push(start..plain.len());
    }
    (plain, parts)
}

proptest! {
    #[test]
    fn seal_open_round_trips(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let aead = Aes256Gcm::new(&key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        prop_assert_eq!(sealed.len(), pt.len() + 16);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        key in proptest::array::uniform32(any::<u8>()),
        pt in proptest::collection::vec(any::<u8>(), 1..64),
        flip_bit in 0usize..64,
    ) {
        let aead = Aes256Gcm::new(&key);
        let nonce = [0u8; 12];
        let mut sealed = aead.seal(&nonce, b"", &pt);
        let bit = flip_bit % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(aead.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn session_round_trips_many_messages(
        key in proptest::array::uniform32(any::<u8>()),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..20),
    ) {
        let mut tx = SealingKey::new(&key, 0);
        let rx = SealingKey::new(&key, 1);
        for m in &msgs {
            let wire = tx.seal(b"hdr", m);
            prop_assert_eq!(&rx.open(b"hdr", &wire).unwrap(), m);
        }
        prop_assert_eq!(tx.next_seq(), msgs.len() as u64);
    }

    /// The tentpole's correctness contract: for any key/nonce/AAD/length
    /// the accelerated backend and the table backend emit identical
    /// bytes, and both open each other's output.
    #[test]
    fn backends_are_byte_identical(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..96),
        pt in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let soft = Aes256Gcm::with_backend(&key, CryptoBackend::Soft);
        let fast = Aes256Gcm::with_backend(&key, CryptoBackend::active());
        let a = soft.seal(&nonce, &aad, &pt);
        let b = fast.seal(&nonce, &aad, &pt);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(fast.open(&nonce, &aad, &a).unwrap(), pt.clone());
        prop_assert_eq!(soft.open(&nonce, &aad, &b).unwrap(), pt);
    }

    /// GHASH three ways: the bitwise GF(2^128) oracle, the 4-bit-table
    /// path, and (when the host has PCLMULQDQ) the carry-less-multiply
    /// path all agree on random operands.
    #[test]
    fn ghash_table_matches_bitwise_oracle(
        h_hi in any::<u64>(),
        h_lo in any::<u64>(),
        x_hi in any::<u64>(),
        x_lo in any::<u64>(),
    ) {
        let h = (h_hi as u128) << 64 | h_lo as u128;
        let x = (x_hi as u128) << 64 | x_lo as u128;
        let key = GhashKey::new(&h.to_be_bytes());
        prop_assert_eq!(key.mul(x), gf_mul(x, h));
        // The clmul lane is covered via whole-tag equality in
        // `backends_are_byte_identical`; its direct multiply
        // differential lives in backend.rs unit tests.
    }

    /// Batch sealing is the per-frame kernel in a loop: the frames must
    /// be identical to sealing each part with `seal_into`, on both
    /// backends, and every frame must open on its own with `open_into`.
    #[test]
    fn batch_seal_equals_sequential_seal(
        key in proptest::array::uniform32(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..12),
        warmup in 0u8..3,
    ) {
        let (plain, parts) = ranges_of(&msgs);
        for backend in [CryptoBackend::Soft, CryptoBackend::active()] {
            let (mut batch_tx, _) = SealingKey::pair_on(&key, backend);
            let (mut seq_tx, rx) = SealingKey::pair_on(&key, backend);
            // Desynchronize from zero so batch sequencing is exercised
            // at arbitrary starting counters.
            for _ in 0..warmup {
                batch_tx.seal(&aad, b"warmup");
                seq_tx.seal(&aad, b"warmup");
            }
            let mut out = Vec::new();
            let mut frames = Vec::new();
            batch_tx.seal_batch_into(&aad, &plain, &parts, &mut out, &mut frames);
            prop_assert_eq!(frames.len(), msgs.len());
            prop_assert_eq!(batch_tx.next_seq(), warmup as u64 + msgs.len() as u64);
            let mut sequential = Vec::new();
            for m in &msgs {
                seq_tx.seal_into(&aad, m, &mut sequential);
            }
            prop_assert_eq!(&out, &sequential, "batch bytes != sequential bytes");
            // The frame ranges tile `out`, and each one opens on its own
            // (open is stateless in the sequence number).
            let mut opened = Vec::new();
            let mut end = 0;
            for (frame, m) in frames.iter().zip(&msgs) {
                prop_assert_eq!(frame.start, end);
                end = frame.end;
                opened.clear();
                rx.open_into(&aad, &out[frame.clone()], &mut opened).unwrap();
                prop_assert_eq!(&opened, m);
            }
            prop_assert_eq!(end, out.len());
        }
    }

    /// A flipped bit anywhere in a batch fails exactly the frame it
    /// lands in — with nothing written for it (verify-then-decrypt) —
    /// and every other frame of the batch still opens.
    #[test]
    fn one_tampered_batch_frame_fails_alone(
        key in proptest::array::uniform32(any::<u8>()),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 1..6),
        flip in any::<usize>(),
    ) {
        let (plain, parts) = ranges_of(&msgs);
        let (mut tx, rx) = SealingKey::pair(&key);
        let mut out = Vec::new();
        let mut frames = Vec::new();
        tx.seal_batch_into(b"", &plain, &parts, &mut out, &mut frames);
        let bit = flip % (out.len() * 8);
        out[bit / 8] ^= 1 << (bit % 8);
        for (frame, m) in frames.iter().zip(&msgs) {
            let mut opened = vec![0xAA];
            let result = rx.open_into(b"", &out[frame.clone()], &mut opened);
            if frame.contains(&(bit / 8)) {
                prop_assert!(result.is_err());
                prop_assert_eq!(&opened, &vec![0xAA]);
            } else {
                prop_assert!(result.is_ok());
                prop_assert_eq!(&opened[1..], m.as_slice());
            }
        }
    }
}
