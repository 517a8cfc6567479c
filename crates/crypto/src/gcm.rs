//! AES-256-GCM authenticated encryption (SP 800-38D, 96-bit nonces).

use crate::aes::Aes256;
use crate::backend::{Accel, CryptoBackend};
use crate::ghash::{Ghash, GhashKey};

/// Length of the authentication tag appended to every ciphertext.
pub const TAG_LEN: usize = 16;
/// Length of the GCM nonce (only the standard 96-bit size is supported).
pub const NONCE_LEN: usize = 12;

/// Authentication failure on [`Aes256Gcm::open`].
///
/// Deliberately carries no detail: distinguishing tag failures from format
/// failures would hand an oracle to the on-path attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// An AES-256-GCM AEAD instance bound to one key.
///
/// # Examples
///
/// ```
/// use tt_crypto::Aes256Gcm;
///
/// let aead = Aes256Gcm::new(&[7u8; 32]);
/// let sealed = aead.seal(&[0u8; 12], b"header", b"trusted timestamp");
/// let opened = aead.open(&[0u8; 12], b"header", &sealed).unwrap();
/// assert_eq!(opened, b"trusted timestamp");
/// assert!(aead.open(&[1u8; 12], b"header", &sealed).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Aes256Gcm {
    cipher: Aes256,
    h: GhashKey,
    /// Accelerated per-key state; `None` on the soft backend. Both
    /// paths produce identical bytes, so this never affects outputs.
    accel: Option<Accel>,
}

impl Aes256Gcm {
    /// Creates an AEAD from a 256-bit key on the process-wide backend
    /// ([`CryptoBackend::active`]).
    ///
    /// Key setup precomputes the AES round keys and the GHASH subkey's
    /// multiplication tables (plus, on the accelerated backend, the
    /// GHASH key powers), so per-message work is table lookups or
    /// AES-NI/PCLMULQDQ instructions only.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::with_backend(key, CryptoBackend::active())
    }

    /// Creates an AEAD pinned to a specific backend.
    ///
    /// Production code uses [`Aes256Gcm::new`]; this exists so
    /// differential tests can hold both implementations side by side in
    /// one process and assert byte-identical outputs.
    pub fn with_backend(key: &[u8; 32], backend: CryptoBackend) -> Self {
        let cipher = Aes256::new(key);
        let h0 = cipher.encrypt_block_copy(&[0u8; 16]);
        let h = GhashKey::new(&h0);
        let accel = Accel::new(backend, cipher.round_key_blocks(), u128::from_be_bytes(h0));
        Aes256Gcm { cipher, h, accel }
    }

    /// The backend this instance actually runs on ([`CryptoBackend::Accel`]
    /// only when the CPU probe passed).
    pub fn backend(&self) -> CryptoBackend {
        if self.accel.is_some() {
            CryptoBackend::Accel
        } else {
            CryptoBackend::Soft
        }
    }

    fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// Portable CTR keystream XOR (the accelerated path fuses this into
    /// [`Accel::seal_frame`]/[`Accel::open_frame`]).
    fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        let mut counter = u32::from_be_bytes([j0[12], j0[13], j0[14], j0[15]]);
        for chunk in data.chunks_mut(16) {
            counter = counter.wrapping_add(1);
            let mut block = *j0;
            block[12..].copy_from_slice(&counter.to_be_bytes());
            self.cipher.encrypt_block(&mut block);
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
        }
    }

    /// Portable tag: the GHASH digest over `aad || ciphertext` (each
    /// zero-padded) plus the length block, masked with `E(J0)`.
    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut ghash = Ghash::new(&self.h);
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let mut tag = ghash.finalize(aad.len(), ciphertext.len());
        for (t, m) in tag.iter_mut().zip(self.cipher.encrypt_block_copy(j0)) {
            *t ^= m;
        }
        tag
    }

    /// Encrypts and authenticates `plaintext` (authenticating `aad` as
    /// well), returning `ciphertext || tag`.
    ///
    /// The caller must never reuse a nonce under the same key; the
    /// [`crate::SealingKey`] wrapper enforces this with a counter.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Allocation-free [`Aes256Gcm::seal`]: appends `ciphertext || tag` to
    /// `out`, leaving any existing prefix (e.g. a wire header) untouched.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(plaintext);
        if let Some(a) = &self.accel {
            // One fused kernel call per frame: CTR keystream, in-place
            // XOR, GHASH, and tag mask.
            let tag = a.seal_frame(nonce, aad, &mut out[start..]);
            out.extend_from_slice(&tag);
            return;
        }
        let j0 = Self::j0(nonce);
        self.ctr_xor(&j0, &mut out[start..]);
        let tag = self.tag(&j0, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts `ciphertext || tag` produced by
    /// [`Aes256Gcm::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the input is shorter than a tag, the tag
    /// does not verify, or `aad`/`nonce` differ from the sealing call.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(TAG_LEN));
        self.open_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Aes256Gcm::open`]: appends the plaintext to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] exactly as [`Aes256Gcm::open`] does; `out` is
    /// untouched on failure (verify-then-decrypt).
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        if sealed.len() < TAG_LEN {
            return Err(AuthError);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let tag: &[u8; TAG_LEN] = tag.try_into().expect("split at TAG_LEN from the end");
        if let Some(a) = &self.accel {
            // Same fused shape as the sealing side. The ciphertext is
            // staged into `out` (it is public data) and only decrypted
            // in place after the tag verifies; on failure the staging is
            // truncated away, so no plaintext is ever materialized.
            let start = out.len();
            out.extend_from_slice(ciphertext);
            if !a.open_frame(nonce, aad, &mut out[start..], tag) {
                out.truncate(start);
                return Err(AuthError);
            }
            return Ok(());
        }
        let j0 = Self::j0(nonce);
        let expected = self.tag(&j0, aad, ciphertext);
        // Branch-free comparison; full constant-time operation is a non-goal
        // (see crate docs) but there is no reason to be sloppy here.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(AuthError);
        }
        let start = out.len();
        out.extend_from_slice(ciphertext);
        self.ctr_xor(&j0, &mut out[start..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex, to_hex};

    fn key(hexstr: &str) -> [u8; 32] {
        from_hex(hexstr).try_into().unwrap()
    }

    fn nonce(hexstr: &str) -> [u8; 12] {
        from_hex(hexstr).try_into().unwrap()
    }

    /// NIST GCM spec test case 13: empty plaintext, empty AAD.
    #[test]
    fn nist_tc13_empty() {
        let aead = Aes256Gcm::new(&[0u8; 32]);
        let sealed = aead.seal(&[0u8; 12], b"", b"");
        assert_eq!(to_hex(&sealed), "530f8afbc74536b9a963b4f1c4cb738b");
        assert_eq!(aead.open(&[0u8; 12], b"", &sealed).unwrap(), b"");
    }

    /// NIST GCM spec test case 14: one zero block.
    #[test]
    fn nist_tc14_single_block() {
        let aead = Aes256Gcm::new(&[0u8; 32]);
        let sealed = aead.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            to_hex(&sealed),
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
        );
    }

    /// NIST GCM spec test case 15: 4 blocks, no AAD.
    #[test]
    fn nist_tc15_four_blocks() {
        let k = key("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let iv = nonce("cafebabefacedbaddecaf888");
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let aead = Aes256Gcm::new(&k);
        let sealed = aead.seal(&iv, b"", &pt);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            to_hex(ct),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
        );
        assert_eq!(to_hex(tag), "b094dac5d93471bdec1a502270e3cc6c");
        assert_eq!(aead.open(&iv, b"", &sealed).unwrap(), pt);
    }

    /// NIST GCM spec test case 16: truncated plaintext plus AAD.
    #[test]
    fn nist_tc16_with_aad() {
        let k = key("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let iv = nonce("cafebabefacedbaddecaf888");
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let aead = Aes256Gcm::new(&k);
        let sealed = aead.seal(&iv, &aad, &pt);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            to_hex(ct),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        );
        assert_eq!(to_hex(tag), "76fc6ece0f4e1768cddf8853bb2d551b");
        assert_eq!(aead.open(&iv, &aad, &sealed).unwrap(), pt);
    }

    /// Every NIST vector above, replayed against *both* backends
    /// explicitly — `Aes256Gcm::new` above already exercises whichever
    /// backend the host detects, this pins down the other one too.
    #[test]
    fn nist_vectors_pass_on_both_backends() {
        let k16 = key("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let iv16 = nonce("cafebabefacedbaddecaf888");
        let pt16 = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad16 = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        for backend in [crate::CryptoBackend::Soft, crate::CryptoBackend::active()] {
            let zero = Aes256Gcm::with_backend(&[0u8; 32], backend);
            // TC13: empty plaintext, empty AAD.
            let sealed = zero.seal(&[0u8; 12], b"", b"");
            assert_eq!(to_hex(&sealed), "530f8afbc74536b9a963b4f1c4cb738b", "{backend:?}");
            // TC14: one zero block.
            let sealed = zero.seal(&[0u8; 12], b"", &[0u8; 16]);
            assert_eq!(
                to_hex(&sealed),
                "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919",
                "{backend:?}"
            );
            // TC16: truncated plaintext plus AAD.
            let aead = Aes256Gcm::with_backend(&k16, backend);
            let sealed = aead.seal(&iv16, &aad16, &pt16);
            let (ct, tag) = sealed.split_at(sealed.len() - 16);
            assert_eq!(
                to_hex(ct),
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
                "{backend:?}"
            );
            assert_eq!(to_hex(tag), "76fc6ece0f4e1768cddf8853bb2d551b", "{backend:?}");
            assert_eq!(aead.open(&iv16, &aad16, &sealed).unwrap(), pt16, "{backend:?}");
        }
    }

    #[test]
    fn tampering_is_detected() {
        let aead = Aes256Gcm::new(&[3u8; 32]);
        let n = [5u8; 12];
        let mut sealed = aead.seal(&n, b"aad", b"payload");
        // Flip one ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(aead.open(&n, b"aad", &sealed), Err(AuthError));
        sealed[0] ^= 1;
        // Flip one tag bit.
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(aead.open(&n, b"aad", &sealed), Err(AuthError));
        sealed[last] ^= 1;
        // Wrong AAD.
        assert_eq!(aead.open(&n, b"other", &sealed), Err(AuthError));
        // Wrong nonce.
        assert_eq!(aead.open(&[6u8; 12], b"aad", &sealed), Err(AuthError));
        // Truncated below tag length.
        assert_eq!(aead.open(&n, b"aad", &sealed[..8]), Err(AuthError));
        // Untampered still opens.
        assert_eq!(aead.open(&n, b"aad", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn ciphertext_hides_plaintext_equality_across_nonces() {
        let aead = Aes256Gcm::new(&[3u8; 32]);
        let a = aead.seal(&[0u8; 12], b"", b"same message");
        let b = aead.seal(&[1u8; 12], b"", b"same message");
        assert_ne!(a, b);
    }
}
