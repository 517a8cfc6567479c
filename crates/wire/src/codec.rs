//! Binary encoding of [`Message`]: version byte, tag byte, fixed-width
//! big-endian fields.

use bytes::Buf;

use crate::message::{AttestOutcome, Message, NodeId, ServeOutcome};

/// Version byte prepended to every encoded message.
pub const PROTOCOL_VERSION: u8 = 1;

const TAG_CALIB_REQ: u8 = 1;
const TAG_CALIB_RESP: u8 = 2;
const TAG_PEER_REQ: u8 = 3;
const TAG_PEER_RESP: u8 = 4;
const TAG_CLIENT_REQ: u8 = 5;
const TAG_CLIENT_RESP: u8 = 6;
const TAG_INTERVAL_REQ: u8 = 7;
const TAG_INTERVAL_RESP: u8 = 8;
const TAG_CHIMER_ANNOUNCE: u8 = 9;
const TAG_READING_REQ: u8 = 10;
const TAG_READING_RESP: u8 = 11;
const TAG_SERVE_REQ: u8 = 12;
const TAG_SERVE_RESP: u8 = 13;
const TAG_ATTEST_REQ: u8 = 14;
const TAG_ATTEST_RESP: u8 = 15;

// ServeOutcome discriminants inside TAG_SERVE_RESP.
const OUTCOME_TIME: u8 = 0;
const OUTCOME_READING: u8 = 1;
const OUTCOME_OVERLOADED: u8 = 2;
const OUTCOME_UNAVAILABLE: u8 = 3;

// AttestOutcome discriminants inside TAG_ATTEST_RESP.
const ATTEST_ATTESTATION: u8 = 0;
const ATTEST_OVERLOADED: u8 = 1;
const ATTEST_UNAVAILABLE: u8 = 2;

/// A message failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    UnexpectedEof,
    /// The version byte did not match [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The tag byte named no known message.
    UnknownTag(u8),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// A field carried an invalid value (e.g. a non-boolean flag).
    InvalidValue,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => f.write_str("unexpected end of message"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::InvalidValue => f.write_str("invalid field value"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

impl Message {
    /// Encodes the message into its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }

    /// Allocation-free [`Message::encode`]: appends the wire form to `buf`
    /// (a reused scratch buffer on the hot path — clear it first for a
    /// standalone message).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u8(buf, PROTOCOL_VERSION);
        match self {
            Message::CalibrationRequest { nonce, sleep_ns } => {
                put_u8(buf, TAG_CALIB_REQ);
                put_u64(buf, *nonce);
                put_u64(buf, *sleep_ns);
            }
            Message::CalibrationResponse { nonce, ta_time_ns, slept_ns } => {
                put_u8(buf, TAG_CALIB_RESP);
                put_u64(buf, *nonce);
                put_u64(buf, *ta_time_ns);
                put_u64(buf, *slept_ns);
            }
            Message::PeerTimeRequest { nonce } => {
                put_u8(buf, TAG_PEER_REQ);
                put_u64(buf, *nonce);
            }
            Message::PeerTimeResponse { nonce, timestamp_ns } => {
                put_u8(buf, TAG_PEER_RESP);
                put_u64(buf, *nonce);
                put_u64(buf, *timestamp_ns);
            }
            Message::ClientTimeRequest { nonce } => {
                put_u8(buf, TAG_CLIENT_REQ);
                put_u64(buf, *nonce);
            }
            Message::ClientTimeResponse { nonce, timestamp_ns } => {
                put_u8(buf, TAG_CLIENT_RESP);
                put_u64(buf, *nonce);
                match timestamp_ns {
                    Some(ts) => {
                        put_u8(buf, 1);
                        put_u64(buf, *ts);
                    }
                    None => put_u8(buf, 0),
                }
            }
            Message::IntervalRequest { nonce } => {
                put_u8(buf, TAG_INTERVAL_REQ);
                put_u64(buf, *nonce);
            }
            Message::IntervalResponse { nonce, timestamp_ns, error_bound_ns, tainted } => {
                put_u8(buf, TAG_INTERVAL_RESP);
                put_u64(buf, *nonce);
                put_u64(buf, *timestamp_ns);
                put_u64(buf, *error_bound_ns);
                put_u8(buf, u8::from(*tainted));
            }
            Message::ChimerAnnouncement { epoch, chimers } => {
                put_u8(buf, TAG_CHIMER_ANNOUNCE);
                put_u64(buf, *epoch);
                // tt-lint: allow(panic-surface) — encode side, not decode: the chimer
                // set is bounded by the cluster size (u16 addresses), so overflow is a
                // local programming error, never reachable from network input.
                let n = u16::try_from(chimers.len()).expect("chimer set exceeds u16::MAX");
                put_u16(buf, n);
                for c in chimers {
                    put_u16(buf, c.0);
                }
            }
            Message::TimeReadingRequest { nonce } => {
                put_u8(buf, TAG_READING_REQ);
                put_u64(buf, *nonce);
            }
            Message::TimeReadingResponse { nonce, reading } => {
                put_u8(buf, TAG_READING_RESP);
                put_u64(buf, *nonce);
                match reading {
                    Some(r) => {
                        put_u8(buf, 1);
                        put_u64(buf, r.estimate_ns);
                        put_u64(buf, r.uncertainty_ns);
                        put_u8(buf, u8::from(r.degraded));
                    }
                    None => put_u8(buf, 0),
                }
            }
            Message::ServeRequest { nonce, accept_degraded } => {
                put_u8(buf, TAG_SERVE_REQ);
                put_u64(buf, *nonce);
                put_u8(buf, u8::from(*accept_degraded));
            }
            Message::ServeResponse { nonce, outcome } => {
                put_u8(buf, TAG_SERVE_RESP);
                put_u64(buf, *nonce);
                match outcome {
                    ServeOutcome::Time(ts) => {
                        put_u8(buf, OUTCOME_TIME);
                        put_u64(buf, *ts);
                    }
                    ServeOutcome::Reading(r) => {
                        put_u8(buf, OUTCOME_READING);
                        put_u64(buf, r.estimate_ns);
                        put_u64(buf, r.uncertainty_ns);
                        put_u8(buf, u8::from(r.degraded));
                    }
                    ServeOutcome::Overloaded => put_u8(buf, OUTCOME_OVERLOADED),
                    ServeOutcome::Unavailable => put_u8(buf, OUTCOME_UNAVAILABLE),
                }
            }
            Message::AttestRequest { nonce } => {
                put_u8(buf, TAG_ATTEST_REQ);
                put_u64(buf, *nonce);
            }
            Message::AttestResponse { nonce, outcome } => {
                put_u8(buf, TAG_ATTEST_RESP);
                put_u64(buf, *nonce);
                match outcome {
                    AttestOutcome::Attestation(r) => {
                        put_u8(buf, ATTEST_ATTESTATION);
                        put_u64(buf, r.estimate_ns);
                        put_u64(buf, r.uncertainty_ns);
                        put_u8(buf, u8::from(r.degraded));
                    }
                    AttestOutcome::Overloaded => put_u8(buf, ATTEST_OVERLOADED),
                    AttestOutcome::Unavailable => put_u8(buf, ATTEST_UNAVAILABLE),
                }
            }
        }
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the buffer is truncated, versioned
    /// wrong, tagged unknown, carries invalid values, or has trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Message, DecodeError> {
        let mut buf = data;
        let version = get_u8(&mut buf)?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let tag = get_u8(&mut buf)?;
        let msg = match tag {
            TAG_CALIB_REQ => Message::CalibrationRequest {
                nonce: get_u64(&mut buf)?,
                sleep_ns: get_u64(&mut buf)?,
            },
            TAG_CALIB_RESP => Message::CalibrationResponse {
                nonce: get_u64(&mut buf)?,
                ta_time_ns: get_u64(&mut buf)?,
                slept_ns: get_u64(&mut buf)?,
            },
            TAG_PEER_REQ => Message::PeerTimeRequest { nonce: get_u64(&mut buf)? },
            TAG_PEER_RESP => Message::PeerTimeResponse {
                nonce: get_u64(&mut buf)?,
                timestamp_ns: get_u64(&mut buf)?,
            },
            TAG_CLIENT_REQ => Message::ClientTimeRequest { nonce: get_u64(&mut buf)? },
            TAG_CLIENT_RESP => {
                let nonce = get_u64(&mut buf)?;
                let timestamp_ns = match get_u8(&mut buf)? {
                    0 => None,
                    1 => Some(get_u64(&mut buf)?),
                    _ => return Err(DecodeError::InvalidValue),
                };
                Message::ClientTimeResponse { nonce, timestamp_ns }
            }
            TAG_INTERVAL_REQ => Message::IntervalRequest { nonce: get_u64(&mut buf)? },
            TAG_INTERVAL_RESP => Message::IntervalResponse {
                nonce: get_u64(&mut buf)?,
                timestamp_ns: get_u64(&mut buf)?,
                error_bound_ns: get_u64(&mut buf)?,
                tainted: match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::InvalidValue),
                },
            },
            TAG_CHIMER_ANNOUNCE => {
                let epoch = get_u64(&mut buf)?;
                let n = get_u16(&mut buf)? as usize;
                let mut chimers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    chimers.push(NodeId(get_u16(&mut buf)?));
                }
                Message::ChimerAnnouncement { epoch, chimers }
            }
            TAG_READING_REQ => Message::TimeReadingRequest { nonce: get_u64(&mut buf)? },
            TAG_READING_RESP => {
                let nonce = get_u64(&mut buf)?;
                let reading = match get_u8(&mut buf)? {
                    0 => None,
                    1 => Some(crate::message::TimeReading {
                        estimate_ns: get_u64(&mut buf)?,
                        uncertainty_ns: get_u64(&mut buf)?,
                        degraded: match get_u8(&mut buf)? {
                            0 => false,
                            1 => true,
                            _ => return Err(DecodeError::InvalidValue),
                        },
                    }),
                    _ => return Err(DecodeError::InvalidValue),
                };
                Message::TimeReadingResponse { nonce, reading }
            }
            TAG_SERVE_REQ => Message::ServeRequest {
                nonce: get_u64(&mut buf)?,
                accept_degraded: match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::InvalidValue),
                },
            },
            TAG_SERVE_RESP => {
                let nonce = get_u64(&mut buf)?;
                let outcome = match get_u8(&mut buf)? {
                    OUTCOME_TIME => ServeOutcome::Time(get_u64(&mut buf)?),
                    OUTCOME_READING => ServeOutcome::Reading(crate::message::TimeReading {
                        estimate_ns: get_u64(&mut buf)?,
                        uncertainty_ns: get_u64(&mut buf)?,
                        degraded: match get_u8(&mut buf)? {
                            0 => false,
                            1 => true,
                            _ => return Err(DecodeError::InvalidValue),
                        },
                    }),
                    OUTCOME_OVERLOADED => ServeOutcome::Overloaded,
                    OUTCOME_UNAVAILABLE => ServeOutcome::Unavailable,
                    _ => return Err(DecodeError::InvalidValue),
                };
                Message::ServeResponse { nonce, outcome }
            }
            TAG_ATTEST_REQ => Message::AttestRequest { nonce: get_u64(&mut buf)? },
            TAG_ATTEST_RESP => {
                let nonce = get_u64(&mut buf)?;
                let outcome = match get_u8(&mut buf)? {
                    ATTEST_ATTESTATION => AttestOutcome::Attestation(crate::message::TimeReading {
                        estimate_ns: get_u64(&mut buf)?,
                        uncertainty_ns: get_u64(&mut buf)?,
                        degraded: match get_u8(&mut buf)? {
                            0 => false,
                            1 => true,
                            _ => return Err(DecodeError::InvalidValue),
                        },
                    }),
                    ATTEST_OVERLOADED => AttestOutcome::Overloaded,
                    ATTEST_UNAVAILABLE => AttestOutcome::Unavailable,
                    _ => return Err(DecodeError::InvalidValue),
                };
                Message::AttestResponse { nonce, outcome }
            }
            other => return Err(DecodeError::UnknownTag(other)),
        };
        if buf.has_remaining() {
            return Err(DecodeError::TrailingBytes(buf.remaining()));
        }
        Ok(msg)
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(buf.get_u16())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(buf.get_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let encoded = msg.encode();
        assert_eq!(Message::decode(&encoded), Ok(msg));
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Message::CalibrationRequest { nonce: 42, sleep_ns: 1_000_000_000 });
        round_trip(Message::CalibrationResponse { nonce: 42, ta_time_ns: u64::MAX, slept_ns: 0 });
        round_trip(Message::PeerTimeRequest { nonce: 7 });
        round_trip(Message::PeerTimeResponse { nonce: 7, timestamp_ns: 123_456 });
        round_trip(Message::ClientTimeRequest { nonce: 1 });
        round_trip(Message::ClientTimeResponse { nonce: 1, timestamp_ns: Some(5) });
        round_trip(Message::ClientTimeResponse { nonce: 1, timestamp_ns: None });
        round_trip(Message::IntervalRequest { nonce: 9 });
        round_trip(Message::IntervalResponse {
            nonce: 9,
            timestamp_ns: 10,
            error_bound_ns: 2,
            tainted: true,
        });
        round_trip(Message::ChimerAnnouncement {
            epoch: 3,
            chimers: vec![NodeId(1), NodeId(2), NodeId(9)],
        });
        round_trip(Message::ChimerAnnouncement { epoch: 0, chimers: vec![] });
        round_trip(Message::TimeReadingRequest { nonce: 4 });
        round_trip(Message::TimeReadingResponse { nonce: 4, reading: None });
        round_trip(Message::TimeReadingResponse {
            nonce: 4,
            reading: Some(crate::message::TimeReading {
                estimate_ns: 1_000_000_007,
                uncertainty_ns: 2_500_000,
                degraded: true,
            }),
        });
        round_trip(Message::ServeRequest { nonce: 8, accept_degraded: true });
        round_trip(Message::ServeRequest { nonce: 9, accept_degraded: false });
        round_trip(Message::ServeResponse { nonce: 8, outcome: ServeOutcome::Time(77) });
        round_trip(Message::ServeResponse {
            nonce: 8,
            outcome: ServeOutcome::Reading(crate::message::TimeReading {
                estimate_ns: 5,
                uncertainty_ns: 6,
                degraded: true,
            }),
        });
        round_trip(Message::ServeResponse { nonce: 8, outcome: ServeOutcome::Overloaded });
        round_trip(Message::ServeResponse { nonce: 8, outcome: ServeOutcome::Unavailable });
        round_trip(Message::AttestRequest { nonce: 11 });
        round_trip(Message::AttestResponse {
            nonce: 11,
            outcome: AttestOutcome::Attestation(crate::message::TimeReading {
                estimate_ns: 9_000_000_001,
                uncertainty_ns: 350_000,
                degraded: false,
            }),
        });
        round_trip(Message::AttestResponse { nonce: 11, outcome: AttestOutcome::Overloaded });
        round_trip(Message::AttestResponse { nonce: 11, outcome: AttestOutcome::Unavailable });
    }

    #[test]
    fn attest_outcomes_validated() {
        let mut encoded =
            Message::AttestResponse { nonce: 1, outcome: AttestOutcome::Overloaded }.encode();
        let last = encoded.len() - 1;
        encoded[last] = 9;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::InvalidValue));
        let mut encoded = Message::AttestResponse {
            nonce: 1,
            outcome: AttestOutcome::Attestation(crate::message::TimeReading {
                estimate_ns: 1,
                uncertainty_ns: 2,
                degraded: true,
            }),
        }
        .encode();
        let last = encoded.len() - 1;
        encoded[last] = 7;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::InvalidValue));
    }

    #[test]
    fn serve_flags_and_outcomes_validated() {
        let mut encoded = Message::ServeRequest { nonce: 1, accept_degraded: true }.encode();
        let last = encoded.len() - 1;
        encoded[last] = 9;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::InvalidValue));
        let mut encoded =
            Message::ServeResponse { nonce: 1, outcome: ServeOutcome::Overloaded }.encode();
        let last = encoded.len() - 1;
        encoded[last] = 42;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::InvalidValue));
    }

    #[test]
    fn serve_requests_are_size_indistinguishable() {
        // The attacker must not learn from ciphertext length whether a
        // client tolerates degraded answers.
        let a = Message::ServeRequest { nonce: 1, accept_degraded: false }.encode();
        let b = Message::ServeRequest { nonce: 2, accept_degraded: true }.encode();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn truncation_fails_cleanly() {
        let encoded = Message::CalibrationRequest { nonce: 1, sleep_ns: 2 }.encode();
        for cut in 0..encoded.len() {
            assert_eq!(
                Message::decode(&encoded[..cut]),
                Err(DecodeError::UnexpectedEof),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn version_and_tag_validation() {
        let mut encoded = Message::PeerTimeRequest { nonce: 1 }.encode();
        encoded[0] = 99;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::BadVersion(99)));
        encoded[0] = PROTOCOL_VERSION;
        encoded[1] = 200;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::UnknownTag(200)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = Message::PeerTimeRequest { nonce: 1 }.encode();
        encoded.push(0);
        assert_eq!(Message::decode(&encoded), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn invalid_flag_rejected() {
        let mut encoded = Message::ClientTimeResponse { nonce: 1, timestamp_ns: None }.encode();
        let last = encoded.len() - 1;
        encoded[last] = 7;
        assert_eq!(Message::decode(&encoded), Err(DecodeError::InvalidValue));
    }

    #[test]
    fn requests_with_same_shape_encode_identically_sized() {
        // The attacker sees message sizes: 0s-sleep and 1s-sleep calibration
        // requests must be indistinguishable by length.
        let a = Message::CalibrationRequest { nonce: 1, sleep_ns: 0 }.encode();
        let b = Message::CalibrationRequest { nonce: 2, sleep_ns: 1_000_000_000 }.encode();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn error_display() {
        assert_eq!(DecodeError::UnexpectedEof.to_string(), "unexpected end of message");
        assert_eq!(DecodeError::BadVersion(3).to_string(), "unsupported protocol version 3");
        assert_eq!(DecodeError::TrailingBytes(2).to_string(), "2 trailing bytes after message");
    }
}
