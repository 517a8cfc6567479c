//! Runtime crypto-backend selection and the accelerated per-key state.
//!
//! The crate carries two implementations of the AES-GCM primitives:
//!
//! - **Soft** — the portable table-based path (`aes.rs`/`ghash.rs`),
//!   always available, and the differential oracle for the fast path;
//! - **Accel** — AES-NI + PCLMULQDQ kernels (`clmul.rs`), selected only
//!   when the CPU advertises the `aes`, `pclmulqdq` and `ssse3` feature
//!   bits at runtime.
//!
//! Selection happens **once per process** ([`CryptoBackend::active`],
//! cached in a `OnceLock`) so the hot path never re-detects. The two
//! backends are *value-identical* — same ciphertexts, same tags — so
//! backend choice can never leak into simulation artifacts; it only
//! changes how fast the bytes are produced. `TT_CRYPTO_BACKEND=soft`
//! forces the portable path (CI exercises this lane), and Miri builds
//! always take it (intrinsics are not interpretable).

use std::sync::OnceLock;

use crate::gcm::NONCE_LEN;

#[cfg(all(target_arch = "x86_64", not(miri)))]
use crate::{clmul, ghash::gf_mul};

/// Which AES-GCM implementation this process uses.
///
/// Obtain via [`CryptoBackend::active`]; construct explicitly only in
/// differential tests (`Aes256Gcm::with_backend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoBackend {
    /// Portable table-based AES + 4-bit-table GHASH. Always available.
    Soft,
    /// AES-NI block kernel + PCLMULQDQ GHASH. x86-64 with runtime-
    /// detected `aes`, `pclmulqdq` and `ssse3` feature bits only.
    Accel,
}

static ACTIVE: OnceLock<CryptoBackend> = OnceLock::new();

impl CryptoBackend {
    /// The process-wide backend, detected on first call and cached.
    ///
    /// Honors `TT_CRYPTO_BACKEND=soft` (or `table`) to force the
    /// portable path; any other value (or none) means auto-detect.
    pub fn active() -> CryptoBackend {
        *ACTIVE.get_or_init(Self::detect)
    }

    fn detect() -> CryptoBackend {
        // tt-lint: allow(ambient-io) — backend selection only: both backends produce byte-identical ciphertexts, so this env read can never change a simulation artifact, only the speed at which it is produced.
        match std::env::var("TT_CRYPTO_BACKEND") {
            Ok(v) if v == "soft" || v == "table" => return CryptoBackend::Soft,
            _ => {}
        }
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            // tt-lint: allow(unsafe-intrinsics) — the runtime feature probe that licenses every unsafe intrinsic call in clmul.rs.
            let aes = std::arch::is_x86_feature_detected!("aes");
            // tt-lint: allow(unsafe-intrinsics) — second part of the same probe.
            let clmul = std::arch::is_x86_feature_detected!("pclmulqdq");
            // tt-lint: allow(unsafe-intrinsics) — third part of the same probe: the GHASH kernel byte-reverses blocks with `pshufb`.
            let ssse3 = std::arch::is_x86_feature_detected!("ssse3");
            if aes && clmul && ssse3 {
                return CryptoBackend::Accel;
            }
        }
        CryptoBackend::Soft
    }
}

/// Per-key accelerated state: the AES round keys laid out for `aesenc`
/// and the GHASH key powers `[H, H², …, H⁸]` for aggregated reduction,
/// both stored as the kernels' own block type so they are read in place.
///
/// Existence of a value of this type is the safety proof for calling
/// into `clmul.rs`: [`Accel::new`] returns `Some` only when the active
/// backend is [`CryptoBackend::Accel`], which in turn requires the
/// runtime feature probe to have passed.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[derive(Clone)]
pub(crate) struct Accel {
    rk: [clmul::Block; clmul::ROUND_KEYS],
    powers: [clmul::Block; clmul::POWERS],
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
impl Accel {
    /// Builds the accelerated state from the already-expanded portable
    /// schedule, or `None` when the backend is [`CryptoBackend::Soft`].
    ///
    /// `h` is the GHASH subkey `E(K, 0^128)` as a big-endian `u128`.
    /// The powers are computed with the bitwise oracle [`gf_mul`] — key
    /// setup is cold, and sharing the oracle keeps one source of truth.
    pub(crate) fn new(backend: CryptoBackend, rk: [[u8; 16]; 15], h: u128) -> Option<Accel> {
        if backend != CryptoBackend::Accel {
            return None;
        }
        let mut power = h;
        let powers = core::array::from_fn(|_| {
            let block = clmul::from_u128(power);
            power = gf_mul(power, h);
            block
        });
        Some(Accel { rk: rk.map(|b| clmul::load(&b)), powers })
    }

    /// The complete GHASH digest (`aad` ∥ `ct` ∥ lengths) of one message
    /// (differential-test harness for the kernel's digest).
    #[cfg(test)]
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn ghash_tag(&self, aad: &[u8], ct: &[u8]) -> [u8; 16] {
        // SAFETY: as in `seal_frame` — the feature bits were detected.
        unsafe { clmul::ghash_tag(&self.powers, aad, ct) }
    }

    /// Seals one frame (encrypt in place + tag) in one kernel call.
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn seal_frame(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; 16] {
        // SAFETY: constructing `Accel` required `CryptoBackend::Accel`,
        // i.e. the `aes`, `pclmulqdq` and `ssse3` feature bits were
        // runtime-detected.
        // tt-lint: allow(unsafe-intrinsics) — sole safe wrapper over the fused seal kernel; the Accel value is the detection proof.
        unsafe { clmul::seal_frame(&self.rk, &self.powers, nonce, aad, data) }
    }

    /// Verifies one frame's tag and, on success, decrypts in place.
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn open_frame(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; 16],
    ) -> bool {
        // SAFETY: as in `seal_frame` — the feature bits were detected.
        // tt-lint: allow(unsafe-intrinsics) — sole safe wrapper over the fused open kernel; the Accel value is the detection proof.
        unsafe { clmul::open_frame(&self.rk, &self.powers, nonce, aad, data, tag) }
    }
}

/// On non-x86-64 targets (and under Miri) no accelerated state can
/// exist: the type is uninhabited and every method is unreachable, so
/// `Option<Accel>` is always `None` and the soft path is taken
/// unconditionally.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
#[derive(Clone)]
pub(crate) enum Accel {}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
impl Accel {
    pub(crate) fn new(_backend: CryptoBackend, _rk: [[u8; 16]; 15], _h: u128) -> Option<Accel> {
        None
    }

    pub(crate) fn seal_frame(
        &self,
        _nonce: &[u8; NONCE_LEN],
        _aad: &[u8],
        _data: &mut [u8],
    ) -> [u8; 16] {
        match *self {}
    }

    pub(crate) fn open_frame(
        &self,
        _nonce: &[u8; NONCE_LEN],
        _aad: &[u8],
        _data: &mut [u8],
        _tag: &[u8; 16],
    ) -> bool {
        match *self {}
    }
}

impl std::fmt::Debug for Accel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Round keys and GHASH powers are key material: never leak them.
        f.write_str("Accel { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_stable_across_calls() {
        assert_eq!(CryptoBackend::active(), CryptoBackend::active());
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    #[allow(unsafe_code)]
    fn clmul_mul_matches_bitwise_oracle() {
        if CryptoBackend::active() != CryptoBackend::Accel {
            eprintln!("skipping: no AES-NI/PCLMULQDQ on this host or forced soft");
            return;
        }
        let mut samples = vec![0u128, 1, 1 << 127, u128::MAX, 0xe1 << 120];
        let mut x = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x);
        }
        for &a in &samples {
            for &b in &samples {
                // SAFETY: backend is Accel, so pclmulqdq was detected.
                let got = unsafe { clmul::gf_mul_clmul(a, b) };
                assert_eq!(got, gf_mul(a, b), "a={a:032x} b={b:032x}");
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn aggregated_ghash_matches_table_path() {
        use crate::ghash::{Ghash, GhashKey};
        if CryptoBackend::active() != CryptoBackend::Accel {
            eprintln!("skipping: no AES-NI/PCLMULQDQ on this host or forced soft");
            return;
        }
        let h_bytes = [0x5e; 16];
        let h = u128::from_be_bytes(h_bytes);
        let accel = Accel::new(CryptoBackend::Accel, [[0; 16]; 15], h).unwrap();
        let key = GhashKey::new(&h_bytes);
        // Lengths straddling the one-reduction boundary (POWERS blocks
        // with the length block), including partial final blocks, split
        // between the two sections every way the lengths allow.
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for len in [0, 1, 15, 16, 17, 63, 64, 65, 100, 111, 112, 113, 128, 130, 200, 257] {
            for aad_len in [0, 4, 16, 20].into_iter().filter(|&a| a <= len) {
                let (aad, ct) = data[..len].split_at(aad_len);
                let mut g = Ghash::new(&key);
                g.update_padded(aad);
                g.update_padded(ct);
                let want = g.finalize(aad.len(), ct.len());
                assert_eq!(accel.ghash_tag(aad, ct), want, "aad={aad_len} len={len}");
            }
        }
    }
}
