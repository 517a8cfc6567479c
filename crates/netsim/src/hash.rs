//! A tiny multiply-mix hasher for the fabric's small fixed-width keys.
//!
//! The hot path does several map lookups per datagram — link state on
//! every dispatch, sessions on every seal/open — all keyed by `Addr`
//! pairs. SipHash's per-lookup setup cost dwarfs the two bytes of key it
//! hashes, so these tables use an FNV-style byte mix with a final
//! Fibonacci multiply instead. This is *not* a DoS-resistant hash; the
//! keys are simulation addresses chosen by the scenario, not attacker
//! input.

// tt-lint: allow(hash-collections) — this module *defines* the deterministic replacement: BuildHasherDefault<FastHasher> has no RandomState, so iteration order is a pure function of the keys and identical in every process.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix [`Hasher`] for short fixed-width keys (see module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0 = (self.0 << 16) ^ u64::from(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 << 32) ^ u64::from(v);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(7) ^ v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One Fibonacci multiply spreads the accumulated key bits into
        // both the bucket-index (low) and control-byte (high) ranges.
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// `HashMap` with the [`FastHasher`] — for small hot-path keys only.
// tt-lint: allow(hash-collections) — fixed deterministic hasher, not RandomState (see module docs).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn addr_pairs_spread_and_round_trip() {
        let mut map: FastMap<(Addr, Addr), u32> = FastMap::default();
        for a in 0..32u16 {
            for b in 0..32u16 {
                map.insert((Addr(a), Addr(b)), u32::from(a) * 100 + u32::from(b));
            }
        }
        assert_eq!(map.len(), 32 * 32);
        assert_eq!(map.get(&(Addr(3), Addr(7))), Some(&307));
        assert_eq!(map.get(&(Addr(7), Addr(3))), Some(&703), "order must matter");
    }
}
