//! Session-level sealing with automatic nonce sequencing.
//!
//! In the reproduced system every (node, peer) pair shares a symmetric key
//! provisioned at attestation time (out of band for the simulation). A
//! [`SealingKey`] derives a fresh 96-bit nonce for every message from a
//! direction byte and a monotonically increasing counter, which removes the
//! possibility of nonce reuse — GCM's one catastrophic failure mode.

use std::ops::Range;
use std::sync::Arc;

use crate::backend::CryptoBackend;
use crate::gcm::{Aes256Gcm, AuthError, NONCE_LEN, TAG_LEN};

/// Bytes of wire framing in front of each sealed payload:
/// `direction (1) || seq (8)`.
const HEADER_LEN: usize = 9;

/// A directional AEAD session: one endpoint's sending half of a shared key.
///
/// Nonces are `direction (1 byte) || zeros (3 bytes) || counter (8 bytes,
/// big-endian)`. The two endpoints of a key must use distinct direction
/// bytes so their nonce spaces never collide.
///
/// # Examples
///
/// ```
/// use tt_crypto::SealingKey;
///
/// let key = [0x11u8; 32];
/// let mut node = SealingKey::new(&key, 0);
/// let mut authority = SealingKey::new(&key, 1);
///
/// let wire = node.seal(b"", b"calibration request s=1s");
/// let opened = authority.open(b"", &wire).unwrap();
/// assert_eq!(opened, b"calibration request s=1s");
/// ```
#[derive(Debug, Clone)]
pub struct SealingKey {
    /// Shared with the opposite-direction session of the same key
    /// ([`SealingKey::pair`]): one AES round-key schedule and one GHASH
    /// table/power set per link instead of one per direction.
    aead: Arc<Aes256Gcm>,
    direction: u8,
    next_seq: u64,
}

impl SealingKey {
    /// Creates a sealing session over `key`, tagged with this endpoint's
    /// `direction` byte.
    pub fn new(key: &[u8; 32], direction: u8) -> Self {
        Self::over(Arc::new(Aes256Gcm::new(key)), direction)
    }

    /// Creates both directional sessions of one shared key in a single
    /// key setup: the AES schedule and GHASH tables are computed once
    /// and shared, not duplicated per direction.
    ///
    /// Returns `(direction 0, direction 1)`.
    pub fn pair(key: &[u8; 32]) -> (Self, Self) {
        let aead = Arc::new(Aes256Gcm::new(key));
        (Self::over(Arc::clone(&aead), 0), Self::over(aead, 1))
    }

    /// [`SealingKey::pair`] pinned to a specific backend — differential
    /// tests only; production uses the process-wide detection.
    pub fn pair_on(key: &[u8; 32], backend: CryptoBackend) -> (Self, Self) {
        let aead = Arc::new(Aes256Gcm::with_backend(key, backend));
        (Self::over(Arc::clone(&aead), 0), Self::over(aead, 1))
    }

    fn over(aead: Arc<Aes256Gcm>, direction: u8) -> Self {
        SealingKey { aead, direction, next_seq: 0 }
    }

    /// The backend the underlying AEAD runs on.
    pub fn backend(&self) -> CryptoBackend {
        self.aead.backend()
    }

    /// Sequence number that the next [`SealingKey::seal`] will consume.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn nonce(direction: u8, seq: u64) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        n[0] = direction;
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Seals `plaintext`, embedding the sequence number in the wire format:
    /// `direction (1) || seq (8) || ciphertext || tag`.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut wire = Vec::with_capacity(HEADER_LEN + plaintext.len() + TAG_LEN);
        self.seal_into(aad, plaintext, &mut wire);
        wire
    }

    /// Allocation-free [`SealingKey::seal`]: appends the wire message to
    /// `out` (a reused scratch buffer on the hot path).
    pub fn seal_into(&mut self, aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let nonce = Self::nonce(self.direction, seq);
        out.push(self.direction);
        out.extend_from_slice(&seq.to_be_bytes());
        self.aead.seal_into(&nonce, aad, plaintext, out);
    }

    /// Opens a wire message sealed by the *other* endpoint of this key.
    ///
    /// # Errors
    ///
    /// Fails if the message is malformed, was sealed by this same direction
    /// (reflection), or does not authenticate.
    pub fn open(&self, aad: &[u8], wire: &[u8]) -> Result<Vec<u8>, AuthError> {
        let mut out = Vec::new();
        self.open_into(aad, wire, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`SealingKey::open`]: appends the plaintext to `out`,
    /// leaving it untouched on failure.
    ///
    /// # Errors
    ///
    /// Fails exactly as [`SealingKey::open`] does.
    pub fn open_into(&self, aad: &[u8], wire: &[u8], out: &mut Vec<u8>) -> Result<(), AuthError> {
        if wire.len() < HEADER_LEN {
            return Err(AuthError);
        }
        let direction = wire[0];
        if direction == self.direction {
            // Reflected message: an attacker replaying our own traffic back.
            return Err(AuthError);
        }
        let seq = u64::from_be_bytes(wire[1..HEADER_LEN].try_into().expect("length checked"));
        let nonce = Self::nonce(direction, seq);
        self.aead.open_into(&nonce, aad, &wire[HEADER_LEN..], out)
    }

    /// Seals a batch of plaintexts, appending one wire frame per part to
    /// `out` and pushing each frame's byte range into `frames`.
    ///
    /// `parts` are ranges into `plain`; every part gets the same `aad`
    /// and a consecutive sequence number — this *is*
    /// [`SealingKey::seal_into`] called once per part.
    pub fn seal_batch_into(
        &mut self,
        aad: &[u8],
        plain: &[u8],
        parts: &[Range<usize>],
        out: &mut Vec<u8>,
        frames: &mut Vec<Range<usize>>,
    ) {
        for part in parts {
            let start = out.len();
            self.seal_into(aad, &plain[part.clone()], out);
            frames.push(start..out.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_directions() {
        let key = [0xAB; 32];
        let mut a = SealingKey::new(&key, 0);
        let mut b = SealingKey::new(&key, 1);
        let w1 = a.seal(b"x", b"hello");
        let w2 = b.seal(b"x", b"world");
        assert_eq!(b.open(b"x", &w1).unwrap(), b"hello");
        assert_eq!(a.open(b"x", &w2).unwrap(), b"world");
    }

    #[test]
    fn nonces_never_repeat_across_messages() {
        let key = [1u8; 32];
        let mut a = SealingKey::new(&key, 0);
        let w1 = a.seal(b"", b"same");
        let w2 = a.seal(b"", b"same");
        assert_ne!(w1, w2, "sequence numbers must change the ciphertext");
        assert_eq!(a.next_seq(), 2);
    }

    #[test]
    fn reflection_is_rejected() {
        let key = [2u8; 32];
        let mut a = SealingKey::new(&key, 0);
        let w = a.seal(b"", b"ping");
        assert_eq!(a.open(b"", &w), Err(AuthError));
    }

    #[test]
    fn tampered_wire_is_rejected() {
        let key = [3u8; 32];
        let mut a = SealingKey::new(&key, 0);
        let b = SealingKey::new(&key, 1);
        let mut w = a.seal(b"", b"payload");
        // Tamper with the embedded sequence number: nonce no longer matches.
        w[5] ^= 1;
        assert_eq!(b.open(b"", &w), Err(AuthError));
        // Too short.
        assert_eq!(b.open(b"", &w[..4]), Err(AuthError));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut a = SealingKey::new(&[4u8; 32], 0);
        let b = SealingKey::new(&[5u8; 32], 1);
        let w = a.seal(b"", b"payload");
        assert_eq!(b.open(b"", &w), Err(AuthError));
    }
}
