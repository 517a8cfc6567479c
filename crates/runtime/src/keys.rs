//! Symmetric key provisioning between protocol participants.
//!
//! Real Triad would establish these keys via remote attestation; the
//! simulation provisions them out of band (deterministically from the
//! scenario seed). What matters for the reproduction is the consequence:
//! the on-path attacker sees only AEAD-sealed bytes.

use netsim::{Addr, FastMap};
use tt_crypto::{AuthError, SealingKey};

/// Returns the direction byte endpoint `a` uses on the `(a, b)` pair key.
fn direction_of(a: Addr, b: Addr) -> u8 {
    u8::from(a.0 > b.0)
}

/// Authenticated-data binding a sealed payload to its link, preventing an
/// attacker from re-injecting a message between different endpoints.
pub fn link_aad(src: Addr, dst: Addr) -> [u8; 4] {
    let s = src.0.to_be_bytes();
    let d = dst.0.to_be_bytes();
    [s[0], s[1], d[0], d[1]]
}

/// All pairwise AEAD sessions of one deployment.
#[derive(Debug, Default)]
pub struct KeyTable {
    /// Keyed by `(local, remote)`; the hot path looks a session up per
    /// seal and per open, so this uses the fabric's fast small-key map.
    sessions: FastMap<(Addr, Addr), SealingKey>,
}

impl KeyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        KeyTable::default()
    }

    /// Installs a fresh pair key between `a` and `b` (both directions).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn provision_pair(&mut self, a: Addr, b: Addr, key: [u8; 32]) {
        assert_ne!(a, b, "an endpoint does not share a key with itself");
        // One key setup for both directions: the AES round keys and
        // GHASH tables/powers live behind a shared `Arc`, halving both
        // provisioning work and per-deployment key-schedule memory.
        let (d0, d1) = SealingKey::pair(&key);
        let (ab, ba) = if direction_of(a, b) == 0 { (d0, d1) } else { (d1, d0) };
        self.sessions.insert((a, b), ab);
        self.sessions.insert((b, a), ba);
    }

    /// True when `src` can seal to `dst`.
    pub fn has_session(&self, src: Addr, dst: Addr) -> bool {
        self.sessions.contains_key(&(src, dst))
    }

    /// Seals `plaintext` from `src` to `dst` with the link-bound AAD.
    ///
    /// # Panics
    ///
    /// Panics if the pair was never provisioned.
    pub fn seal(&mut self, src: Addr, dst: Addr, plaintext: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        self.seal_into(src, dst, plaintext, &mut wire);
        wire
    }

    /// Allocation-free [`KeyTable::seal`]: appends the wire message to
    /// `out` (a reused scratch buffer on the hot path — clear it first).
    ///
    /// # Panics
    ///
    /// Panics if the pair was never provisioned.
    pub fn seal_into(&mut self, src: Addr, dst: Addr, plaintext: &[u8], out: &mut Vec<u8>) {
        let session = self
            .sessions
            .get_mut(&(src, dst))
            .unwrap_or_else(|| panic!("no key provisioned for {src} -> {dst}"));
        session.seal_into(&link_aad(src, dst), plaintext, out);
    }

    /// Opens a sealed payload received by `me` from `from`.
    ///
    /// # Errors
    ///
    /// Fails when the pair has no key or authentication fails.
    pub fn open(&self, me: Addr, from: Addr, wire: &[u8]) -> Result<Vec<u8>, AuthError> {
        let mut out = Vec::new();
        self.open_into(me, from, wire, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`KeyTable::open`]: appends the plaintext to `out`,
    /// leaving it untouched on failure.
    ///
    /// # Errors
    ///
    /// Fails when the pair has no key or authentication fails.
    pub fn open_into(
        &self,
        me: Addr,
        from: Addr,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        let session = self.sessions.get(&(me, from)).ok_or(AuthError)?;
        session.open_into(&link_aad(from, me), wire, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioned_pair_round_trips() {
        let mut table = KeyTable::new();
        table.provision_pair(Addr(1), Addr(0), [7u8; 32]);
        assert!(table.has_session(Addr(1), Addr(0)));
        assert!(table.has_session(Addr(0), Addr(1)));
        assert!(!table.has_session(Addr(1), Addr(2)));
        let wire = table.seal(Addr(1), Addr(0), b"request");
        assert_eq!(table.open(Addr(0), Addr(1), &wire).unwrap(), b"request");
    }

    #[test]
    fn cross_link_replay_is_rejected() {
        let mut table = KeyTable::new();
        // Same key material on two pairs: AAD still separates the links.
        table.provision_pair(Addr(1), Addr(0), [7u8; 32]);
        table.provision_pair(Addr(2), Addr(0), [7u8; 32]);
        let wire = table.seal(Addr(1), Addr(0), b"for TA from 1");
        // Replaying node 1's message as if from node 2 fails.
        assert!(table.open(Addr(0), Addr(2), &wire).is_err());
    }

    #[test]
    fn reflection_is_rejected() {
        let mut table = KeyTable::new();
        table.provision_pair(Addr(1), Addr(0), [9u8; 32]);
        let wire = table.seal(Addr(1), Addr(0), b"echo?");
        // The sender cannot be fooled into accepting its own message.
        assert!(table.open(Addr(1), Addr(0), &wire).is_err());
    }

    #[test]
    fn unknown_pair_fails_to_open() {
        let table = KeyTable::new();
        assert!(table.open(Addr(0), Addr(1), b"junk").is_err());
    }

    #[test]
    #[should_panic(expected = "does not share a key with itself")]
    fn self_pair_rejected() {
        KeyTable::new().provision_pair(Addr(1), Addr(1), [0u8; 32]);
    }
}
