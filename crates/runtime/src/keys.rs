//! Symmetric sessions between protocol participants.
//!
//! Real Triad would establish these keys via remote attestation; both
//! drivers derive them from the run seed instead ([`pair_key`]), on first
//! use, for exactly the pairs [`proto::linked`] allows. What matters for
//! the reproduction is the consequence: the on-path attacker sees only
//! AEAD-sealed bytes.

use netsim::{Addr, FastMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tt_crypto::{AuthError, SealingKey};

/// The 32-byte key of the unordered pair `{a, b}` under run seed `seed`:
/// both ends derive the same bytes, and no two pairs of one run share them.
pub fn pair_key(seed: u64, a: Addr, b: Addr) -> [u8; 32] {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let mut rng = StdRng::seed_from_u64(
        seed ^ (u64::from(lo) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((u64::from(hi) + 1) << 17),
    );
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    key
}

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
    /// The run seed linked pairs derive their sessions from; `None` for
    /// a table keyed only by [`KeyTable::provision_pair`].
    seed: Option<u64>,
}

impl KeyTable {
    /// Creates an empty table that derives nothing.
    pub fn new() -> Self {
        KeyTable::default()
    }

    /// Creates an empty table that derives each [`proto::linked`] pair's
    /// session from `seed` on first use.
    pub fn seeded(seed: u64) -> Self {
        KeyTable { seed: Some(seed), ..KeyTable::default() }
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

    /// Derives the `(a, b)` session (both directions) when the table is
    /// seeded, the pair [`proto::linked`] and the session not yet held;
    /// true when it did. Only the miss paths call it, so it stays cold.
    #[cold]
    pub fn derive(&mut self, a: Addr, b: Addr) -> bool {
        let Some(seed) = self.seed else { return false };
        let fresh = proto::linked(a, b) && !self.sessions.contains_key(&(a, b));
        if fresh {
            self.provision_pair(a, b, pair_key(seed, a, b));
        }
        fresh
    }

    /// True when `src` can seal to `dst`: it holds the session or derives
    /// it on first use.
    pub fn has_session(&self, src: Addr, dst: Addr) -> bool {
        self.sessions.contains_key(&(src, dst)) || (self.seed.is_some() && proto::linked(src, dst))
    }

    /// Seals `plaintext` from `src` to `dst` with the link-bound AAD.
    ///
    /// # Panics
    ///
    /// Panics if the pair was never provisioned and does not derive.
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
    /// Panics if the pair was never provisioned and does not derive.
    pub fn seal_into(&mut self, src: Addr, dst: Addr, plaintext: &[u8], out: &mut Vec<u8>) {
        let aad = link_aad(src, dst);
        if let Some(session) = self.sessions.get_mut(&(src, dst)) {
            session.seal_into(&aad, plaintext, out);
            return;
        }
        assert!(self.derive(src, dst), "no key provisioned for {src} -> {dst}");
        self.seal_into(src, dst, plaintext, out);
    }

    /// Opens a sealed payload received by `me` from `from`; derives nothing.
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

    #[test]
    fn a_seeded_table_derives_a_linked_pair_on_its_first_seal() {
        let (node, ta) = (proto::node_addr(0), proto::TA_ADDR);
        let mut table = KeyTable::seeded(5);
        assert!(table.has_session(node, ta) && table.has_session(ta, node));
        let request = table.seal(node, ta, b"request");
        assert!(!table.derive(node, ta), "the seal derived both directions");
        assert_eq!(table.open(ta, node, &request).unwrap(), b"request");
        let reply = table.seal(ta, node, b"reply");
        assert_eq!(table.open(node, ta, &reply).unwrap(), b"reply");

        // Another table of the same run derives the same session.
        let mut peer = KeyTable::seeded(5);
        assert!(peer.derive(ta, node));
        assert_eq!(peer.open(ta, node, &request).unwrap(), b"request");
        // One of another run does not.
        let mut stranger = KeyTable::seeded(6);
        assert!(stranger.derive(ta, node));
        assert!(stranger.open(ta, node, &request).is_err());
    }

    #[test]
    fn only_a_seeded_table_and_a_linked_pair_derive() {
        let (node, fe) = (proto::node_addr(0), proto::frontend_addr(0));
        let mut table = KeyTable::seeded(5);
        assert!(!table.has_session(node, fe));
        assert!(!table.derive(node, fe));
        assert!(!table.derive(node, node));
        let mut unseeded = KeyTable::new();
        assert!(!unseeded.has_session(node, proto::TA_ADDR));
        assert!(!unseeded.derive(node, proto::TA_ADDR));
    }

    #[test]
    fn pair_keys_are_symmetric_and_distinct_over_the_largest_deployment() {
        // TA, `service::MAX_CLUSTER_NODES` nodes with their front-ends,
        // and eight each of generators and clients.
        let addrs: Vec<Addr> = std::iter::once(proto::TA_ADDR)
            .chain((0..64).flat_map(|i| [proto::node_addr(i), proto::frontend_addr(i)]))
            .chain((0..8).flat_map(|i| [proto::generator_addr(i), proto::client_addr(i)]))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut pairs = 0;
        for seed in [7, 8] {
            for (i, &a) in addrs.iter().enumerate() {
                for &b in addrs[i + 1..].iter().filter(|&&b| proto::linked(a, b)) {
                    let key = pair_key(seed, a, b);
                    assert_eq!(key, pair_key(seed, b, a), "{a} <-> {b}");
                    assert!(seen.insert(key), "seed {seed}: {a} <-> {b} repeats a key");
                    pairs += 1;
                }
            }
        }
        // 64 TA + 2016 node + 512 each client-node, client-fe, gen-fe.
        assert_eq!(pairs, 2 * 3616);
    }
}
