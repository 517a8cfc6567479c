//! Property-based round-trip tests for the wire codec.

use proptest::prelude::*;
use wire::{AttestOutcome, DecodeError, Message, NodeId, ServeOutcome, TimeReading};

fn arb_reading() -> impl Strategy<Value = TimeReading> {
    (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(estimate_ns, uncertainty_ns, degraded)| TimeReading {
            estimate_ns,
            uncertainty_ns,
            degraded,
        },
    )
}

fn arb_serve_outcome() -> impl Strategy<Value = ServeOutcome> {
    prop_oneof![
        any::<u64>().prop_map(ServeOutcome::Time),
        arb_reading().prop_map(ServeOutcome::Reading),
        Just(ServeOutcome::Overloaded),
        Just(ServeOutcome::Unavailable),
    ]
}

fn arb_attest_outcome() -> impl Strategy<Value = AttestOutcome> {
    prop_oneof![
        arb_reading().prop_map(AttestOutcome::Attestation),
        Just(AttestOutcome::Overloaded),
        Just(AttestOutcome::Unavailable),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, sleep_ns)| Message::CalibrationRequest { nonce, sleep_ns }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(nonce, ta_time_ns, slept_ns)| {
            Message::CalibrationResponse { nonce, ta_time_ns, slept_ns }
        }),
        any::<u64>().prop_map(|nonce| Message::PeerTimeRequest { nonce }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, timestamp_ns)| Message::PeerTimeResponse { nonce, timestamp_ns }),
        any::<u64>().prop_map(|nonce| Message::ClientTimeRequest { nonce }),
        (any::<u64>(), proptest::option::of(any::<u64>()))
            .prop_map(|(nonce, timestamp_ns)| Message::ClientTimeResponse { nonce, timestamp_ns }),
        any::<u64>().prop_map(|nonce| Message::IntervalRequest { nonce }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(nonce, timestamp_ns, error_bound_ns, tainted)| Message::IntervalResponse {
                nonce,
                timestamp_ns,
                error_bound_ns,
                tainted
            }
        ),
        (any::<u64>(), proptest::collection::vec(any::<u16>(), 0..20)).prop_map(|(epoch, ids)| {
            Message::ChimerAnnouncement { epoch, chimers: ids.into_iter().map(NodeId).collect() }
        }),
        any::<u64>().prop_map(|nonce| Message::TimeReadingRequest { nonce }),
        (any::<u64>(), proptest::option::of(arb_reading()))
            .prop_map(|(nonce, reading)| Message::TimeReadingResponse { nonce, reading }),
        (any::<u64>(), any::<bool>()).prop_map(|(nonce, accept_degraded)| {
            Message::ServeRequest { nonce, accept_degraded }
        }),
        (any::<u64>(), arb_serve_outcome())
            .prop_map(|(nonce, outcome)| Message::ServeResponse { nonce, outcome }),
        any::<u64>().prop_map(|nonce| Message::AttestRequest { nonce }),
        (any::<u64>(), arb_attest_outcome())
            .prop_map(|(nonce, outcome)| Message::AttestResponse { nonce, outcome }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_round_trips(msg in arb_message()) {
        let encoded = msg.encode();
        prop_assert_eq!(Message::decode(&encoded), Ok(msg));
    }

    #[test]
    fn decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&data);
    }

    /// The decoder reads from the borrowed slice, so its end-of-input
    /// checks are the only thing between a short datagram and a panic:
    /// every strict prefix of a valid encoding is `UnexpectedEof` (never
    /// another error, never `Ok`), and one extra byte is counted exactly.
    #[test]
    fn truncation_at_every_offset_is_eof_and_one_extra_byte_is_trailing(msg in arb_message()) {
        let mut encoded = msg.encode();
        for cut in 0..encoded.len() {
            prop_assert_eq!(
                Message::decode(&encoded[..cut]),
                Err(DecodeError::UnexpectedEof),
                "cut at {}", cut
            );
        }
        encoded.push(0);
        prop_assert_eq!(Message::decode(&encoded), Err(DecodeError::TrailingBytes(1)));
    }
}
