//! x86-64 AES-NI / PCLMULQDQ kernels — the only unsafe code in the crate.
//!
//! Everything here is `#[target_feature]`-gated and therefore unsafe to
//! call: callers must have proven at runtime that the CPU supports the
//! `aes`, `pclmulqdq` and `ssse3` feature bits. That proof lives in
//! exactly one place — [`crate::backend::CryptoBackend::active`] — and
//! the safe wrappers in `backend.rs` are the only callers, so the
//! unsafety is confined to this module pair (enforced by the workspace
//! `tt-lint` `unsafe-intrinsics` lint).
//!
//! The kernels are *value-identical* to the portable table path:
//!
//! - AES: `aesenc`/`aesenclast` over the same FIPS-197 round keys the
//!   table path expands (the schedule bytes are shared, not re-derived).
//! - GHASH: a carry-less multiply in GCM's reflected bit order. The
//!   64×64 products come from `pclmulqdq`; the reflection shift and the
//!   two-fold reduction by `x^128 + x^7 + x^2 + x + 1` are the
//!   shift-and-fold of Intel's carry-less-multiplication white paper,
//!   checked against [`crate::ghash::gf_mul`].
//!
//! What a frame costs is set by how little of it goes through memory:
//! AES runs in flights whose lane count is a compile-time constant, so
//! the lanes are XMM registers rather than a stack array that every
//! round loads and stores; counter blocks are put together in general
//! registers, not patched into a byte array and loaded back; partial
//! blocks are read and written with fixed-width overlapping accesses
//! rather than a variable-length copy; and blocks, key powers and the
//! reduction stay in XMM instead of crossing to general registers.
//!
//! Both halves are differentially tested against the portable
//! implementations (unit tests in `backend.rs`, `tests/props.rs`,
//! `tests/frame_sweep.rs`), so a wrong constant here cannot survive
//! `cargo test`.

// tt-lint: allow-file(unsafe-intrinsics) — designated intrinsics module; every entry point is feature-gated and only reachable through backend.rs detection.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_and_si128, _mm_clmulepi64_si128,
    _mm_cmpeq_epi8, _mm_cmpgt_epi8, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_movemask_epi8,
    _mm_or_si128, _mm_set1_epi8, _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi8,
    _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

use crate::gcm::NONCE_LEN;

/// Number of AES-256 round keys (initial whitening + 13 rounds + last).
pub(crate) const ROUND_KEYS: usize = 15;

/// Precomputed GHASH key powers `[H, H², …, H^POWERS]`: a digest of up
/// to `POWERS` blocks (aad + ciphertext + length block) is one
/// aggregated reduction; longer ones reduce once per `POWERS` blocks.
pub(crate) const POWERS: usize = 8;

/// AES blocks per flight. Four independent `aesenc` chains cover the
/// instruction's latency, and `E(J0)` plus three keystream blocks is a
/// whole protocol frame (payloads up to 48 bytes).
const LANES: usize = 4;

/// A 16-byte block as the kernels hold it. Round keys and key powers
/// are stored as this type, which is 16-byte aligned, so the kernels use
/// them as memory operands and never copy them.
pub(crate) type Block = __m128i;

#[inline(always)]
pub(crate) fn load(b: &[u8; 16]) -> __m128i {
    // SAFETY: `b` is a valid 16-byte read; `loadu` has no alignment
    // requirement. SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
}

#[inline(always)]
fn store(b: &mut [u8; 16], v: __m128i) {
    // SAFETY: `b` is a valid 16-byte write; `storeu` is unaligned-safe.
    unsafe { _mm_storeu_si128(b.as_mut_ptr().cast(), v) }
}

/// The block whose multiplication-order value is `x`.
#[inline(always)]
pub(crate) fn from_u128(x: u128) -> __m128i {
    // SAFETY: `set_epi64x` only moves GPRs into an XMM register (SSE2,
    // x86-64 baseline).
    unsafe { _mm_set_epi64x((x >> 64) as i64, x as i64) }
}

#[inline(always)]
fn to_u128(v: __m128i) -> u128 {
    // SAFETY: XMM → GPR moves and a byte shift (SSE2, x86-64 baseline).
    let (lo, hi) = unsafe { (_mm_cvtsi128_si64(v), _mm_cvtsi128_si64(_mm_srli_si128(v, 8))) };
    u128::from(lo as u64) | u128::from(hi as u64) << 64
}

#[inline(always)]
fn array<const N: usize>(s: &[u8]) -> [u8; N] {
    s.try_into().expect("caller sliced exactly N bytes")
}

/// Reads a 1–15-byte tail as a zero-padded block: two fixed-width loads
/// that overlap in the middle, not a variable-length copy.
#[inline(always)]
fn load_partial(b: &[u8]) -> __m128i {
    let n = b.len();
    from_u128(if n >= 8 {
        let head = u64::from_le_bytes(array(&b[..8]));
        let tail = u64::from_le_bytes(array(&b[n - 8..]));
        u128::from(head) | u128::from(tail) << ((n - 8) * 8)
    } else if n >= 4 {
        let head = u32::from_le_bytes(array(&b[..4]));
        let tail = u32::from_le_bytes(array(&b[n - 4..]));
        u128::from(u64::from(head) | u64::from(tail) << ((n - 4) * 8))
    } else {
        u128::from(b[0])
            | u128::from(b[n / 2]) << (n / 2 * 8)
            | u128::from(b[n - 1]) << ((n - 1) * 8)
    })
}

/// Writes the low `b.len()` (1–15) bytes of `v` — the mirror image of
/// [`load_partial`].
#[inline(always)]
fn store_partial(b: &mut [u8], v: __m128i) {
    let n = b.len();
    let x = to_u128(v);
    if n >= 8 {
        b[..8].copy_from_slice(&(x as u64).to_le_bytes());
        b[n - 8..].copy_from_slice(&((x >> ((n - 8) * 8)) as u64).to_le_bytes());
    } else if n >= 4 {
        b[..4].copy_from_slice(&(x as u32).to_le_bytes());
        b[n - 4..].copy_from_slice(&((x as u64 >> ((n - 4) * 8)) as u32).to_le_bytes());
    } else {
        b[0] = x as u8;
        b[n / 2] = (x >> (n / 2 * 8)) as u8;
        b[n - 1] = (x >> ((n - 1) * 8)) as u8;
    }
}

/// `n` (0–16) leading `0xff` bytes, the rest zero.
#[inline]
#[target_feature(enable = "sse2")]
fn head_mask(n: usize) -> __m128i {
    let index = _mm_set_epi64x(0x0f0e_0d0c_0b0a_0908, 0x0706_0504_0302_0100);
    _mm_cmpgt_epi8(_mm_set1_epi8(n as i8), index)
}

/// The counter blocks `ctr, ctr + 1, …` of one flight. A 96-bit-nonce
/// counter block is `nonce ∥ be32(counter)`, and `J0` is counter 1; both
/// halves are assembled in general registers, so a lane costs one
/// byte-swap and one GPR→XMM move rather than a patched byte array.
#[inline(always)]
fn counter_blocks(nonce: &[u8; NONCE_LEN], ctr: u32) -> [__m128i; LANES] {
    let lo = u64::from_le_bytes(array(&nonce[..8]));
    let hi = u64::from(u32::from_le_bytes(array(&nonce[8..])));
    core::array::from_fn(|i| {
        let be = ctr.wrapping_add(i as u32).swap_bytes();
        from_u128(u128::from(lo) | u128::from(hi | u64::from(be) << 32) << 64)
    })
}

/// AES-256-encrypts one flight of blocks. The lane count is a constant,
/// so the thirteen middle rounds unroll over XMM registers and each
/// round key is a memory operand of `aesenc`, read once per lane.
#[inline]
#[target_feature(enable = "aes")]
fn flight(k: &[__m128i; ROUND_KEYS], mut s: [__m128i; LANES]) -> [__m128i; LANES] {
    for lane in &mut s {
        *lane = _mm_xor_si128(*lane, k[0]);
    }
    for key in &k[1..ROUND_KEYS - 1] {
        for lane in &mut s {
            *lane = _mm_aesenc_si128(*lane, *key);
        }
    }
    for lane in &mut s {
        *lane = _mm_aesenclast_si128(*lane, k[ROUND_KEYS - 1]);
    }
    s
}

/// XORs one keystream block per 16 bytes of `data` (at most `N` blocks)
/// in place. Returns the last block written when it was a partial one,
/// zero-padded (what GHASH absorbs for it), else zero.
#[inline]
#[target_feature(enable = "sse2")]
fn xor_lanes<const N: usize>(data: &mut [u8], ks: [__m128i; N]) -> __m128i {
    let mut tail = _mm_setzero_si128();
    let mut rest = data;
    // The trip count is the constant `N`, not the number of chunks:
    // that is what unrolls the loop and lets the lanes stay registers.
    for ks in ks {
        let (chunk, after) = rest.split_at_mut(rest.len().min(16));
        rest = after;
        if let Ok(block) = <&mut [u8; 16]>::try_from(&mut *chunk) {
            store(block, _mm_xor_si128(load(block), ks));
        } else if !chunk.is_empty() {
            let mask = head_mask(chunk.len());
            tail = _mm_and_si128(_mm_xor_si128(load_partial(chunk), ks), mask);
            store_partial(chunk, tail);
        }
    }
    tail
}

/// XORs the CTR keystream of the whole frame into `data` in place.
/// `head` is the keystream of the first `LANES - 1` blocks, produced by
/// the flight that also encrypted `J0`; later blocks run in flights of
/// their own. Returns [`xor_lanes`]' tail block of the last flight.
#[inline]
#[target_feature(enable = "aes")]
fn cipher(
    k: &[__m128i; ROUND_KEYS],
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
    head: [__m128i; LANES - 1],
) -> __m128i {
    let (first, rest) = data.split_at_mut(data.len().min(16 * (LANES - 1)));
    let mut tail = xor_lanes(first, head);
    // J0 is counter 1 and `head` used up the next LANES - 1.
    let mut ctr = 1 + LANES as u32;
    for chunk in rest.chunks_mut(16 * LANES) {
        tail = xor_lanes(chunk, flight(k, counter_blocks(nonce, ctr)));
        ctr = ctr.wrapping_add(LANES as u32);
    }
    tail
}

/// 128×128 → 256 carry-less multiply (schoolbook: four `pclmulqdq`s,
/// no cross-lane dependencies until the final XOR). Returns the
/// `(high, low)` halves of the unreduced product, so callers can
/// XOR-aggregate many products and [`reduce`] once.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn mul_wide(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128(a, b, 0x00);
    let hi = _mm_clmulepi64_si128(a, b, 0x11);
    // Carry-less: the cross term folds in with XOR, no carries to ripple.
    let mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01), _mm_clmulepi64_si128(a, b, 0x10));
    (_mm_xor_si128(hi, _mm_srli_si128(mid, 8)), _mm_xor_si128(lo, _mm_slli_si128(mid, 8)))
}

/// Reduces an unreduced 256-bit product (`(high, low)` halves) to
/// GF(2^128) in GCM's reflected bit order, without leaving XMM.
///
/// The operands fed to [`mul_wide`] are bit-reflected (SP 800-38D block
/// order: coefficient `k` lives at bit `127 - k`), so the raw product is
/// the reflection of the true polynomial product *shifted down by one*
/// — hence the 256-bit left shift first. The two folds then apply
/// `x^128 ≡ x^7 + x^2 + x + 1 (mod g)`; in reflected order multiplying
/// by `x^k` is a right shift by `k`. The shifts are per 32-bit word
/// (SSE2 has no 128-bit bit shift), so each is paired with a byte shift
/// that carries the bits crossing a word boundary; the bits the first
/// fold pushes past bit 127 (`spill`) are folded once more (that second
/// residue is at most degree 12, so two folds always suffice).
#[inline]
#[target_feature(enable = "sse2")]
fn reduce(hi: __m128i, lo: __m128i) -> __m128i {
    // Undo the reflection offset: shift the 256-bit pair left by one.
    let carry_lo = _mm_srli_epi32(lo, 31);
    let carry_hi = _mm_srli_epi32(hi, 31);
    let lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(carry_lo, 4));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(carry_hi, 4)),
        _mm_srli_si128(carry_lo, 12),
    );
    // Fold 1: the low half times x^127 + x^126 + x^121.
    let f = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
        _mm_slli_epi32(lo, 25),
    );
    let spill = _mm_srli_si128(f, 4);
    let lo = _mm_xor_si128(lo, _mm_slli_si128(f, 12));
    // Fold 2: times 1 + x + x^2 + x^7, plus what fold 1 spilled.
    let g = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
        _mm_xor_si128(_mm_srli_epi32(lo, 7), spill),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, g))
}

/// Byte-reverses a block: wire order ↔ the order [`mul_wide`] works in.
#[inline]
#[target_feature(enable = "ssse3")]
fn reflect(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(v, _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f))
}

/// GF(2^128) multiply in GCM's representation — the carry-less-multiply
/// twin of [`crate::ghash::gf_mul`].
///
/// # Safety
///
/// The CPU must support the `pclmulqdq` feature.
#[cfg(test)]
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn gf_mul_clmul(x: u128, y: u128) -> u128 {
    let (hi, lo) = mul_wide(from_u128(x), from_u128(y));
    to_u128(reduce(hi, lo))
}

/// The GHASH of one GCM message (`aad` ∥ ciphertext ∥ length block, each
/// section zero-padded), absorbed block by block.
///
/// With `m` blocks to go, the Horner update
///
/// ```text
/// y' = ((((y ⊕ B₀)·H ⊕ B₁)·H ⊕ …) ⊕ Bₘ₋₁)·H
///    = (y ⊕ B₀)·Hᵐ ⊕ B₁·Hᵐ⁻¹ ⊕ … ⊕ Bₘ₋₁·H
/// ```
///
/// is evaluated with the unreduced 256-bit products XORed together and
/// a *single* reduction — same field value by distributivity, a fraction
/// of the reduction work, and no multiply waits for another. `m` is
/// capped at [`POWERS`]: the block count is known up front, the first
/// group takes the odd blocks, and every later one is `POWERS` long.
struct Digest<'a> {
    powers: &'a [Block; POWERS],
    /// Unreduced sum of the current group's products.
    hi: __m128i,
    lo: __m128i,
    /// The previous groups' value; XORed into the next block absorbed.
    y: __m128i,
    /// Blocks still to absorb, the length block included.
    todo: usize,
    /// The closing length block, in multiplication order.
    lens: __m128i,
}

impl<'a> Digest<'a> {
    #[inline]
    #[target_feature(enable = "sse2")]
    fn new(powers: &'a [Block; POWERS], aad_len: usize, ct_len: usize) -> Self {
        let zero = _mm_setzero_si128();
        let todo = aad_len.div_ceil(16) + ct_len.div_ceil(16) + 1;
        let lens = from_u128(((aad_len as u128 * 8) << 64) | (ct_len as u128 * 8));
        Digest { powers, hi: zero, lo: zero, y: zero, todo, lens }
    }

    /// Absorbs one block already in multiplication order.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn absorb_reflected(&mut self, block: __m128i) {
        self.todo -= 1;
        let power = self.todo % POWERS;
        let (hi, lo) = mul_wide(_mm_xor_si128(block, self.y), self.powers[power]);
        self.hi = _mm_xor_si128(self.hi, hi);
        self.lo = _mm_xor_si128(self.lo, lo);
        self.y = _mm_setzero_si128();
        if power == 0 {
            self.y = reduce(self.hi, self.lo);
            self.hi = _mm_setzero_si128();
            self.lo = _mm_setzero_si128();
        }
    }

    /// Absorbs one block in wire order.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(&mut self, block: __m128i) {
        self.absorb_reflected(reflect(block));
    }

    /// Absorbs one section, zero-padding its last block.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb_bytes(&mut self, data: &[u8]) {
        let mut blocks = data.chunks_exact(16);
        for chunk in &mut blocks {
            self.absorb(load(&array(chunk)));
        }
        if !blocks.remainder().is_empty() {
            self.absorb(load_partial(blocks.remainder()));
        }
    }

    /// Absorbs the length block and returns the digest in wire order.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn finish(mut self) -> __m128i {
        debug_assert_eq!(self.todo, 1, "every section absorbed");
        self.absorb_reflected(self.lens);
        reflect(self.y)
    }
}

/// The GHASH digest of one message whose sections both live in memory
/// (differential-test harness for [`Digest`]).
///
/// # Safety
///
/// The CPU must support the `pclmulqdq` and `ssse3` features.
#[cfg(test)]
#[target_feature(enable = "pclmulqdq,ssse3")]
pub(crate) unsafe fn ghash_tag(powers: &[Block; POWERS], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let mut digest = Digest::new(powers, aad.len(), ct.len());
    digest.absorb_bytes(aad);
    digest.absorb_bytes(ct);
    let mut out = [0u8; 16];
    store(&mut out, digest.finish());
    out
}

/// Seals one frame in a single feature-gated call: CTR-encrypts `data`
/// (plaintext in, ciphertext out), GHASHes `aad ∥ ct ∥ lens`, and
/// returns the masked tag. `E(J0)` rides in the first keystream flight.
///
/// # Safety
///
/// The CPU must support the `aes`, `pclmulqdq` and `ssse3` features.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub(crate) unsafe fn seal_frame(
    k: &[Block; ROUND_KEYS],
    powers: &[Block; POWERS],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
) -> [u8; 16] {
    let [ej0, head @ ..] = flight(k, counter_blocks(nonce, 1));
    let tail = cipher(k, nonce, data, head);
    let mut digest = Digest::new(powers, aad.len(), data.len());
    digest.absorb_bytes(aad);
    // Whole blocks are read back from `data`; the partial one comes from
    // its register, because its overlapping stores would not forward to
    // a load.
    digest.absorb_bytes(&data[..data.len() / 16 * 16]);
    if !data.len().is_multiple_of(16) {
        digest.absorb(tail);
    }
    let mut tag = [0u8; 16];
    store(&mut tag, _mm_xor_si128(digest.finish(), ej0));
    tag
}

/// Opens one frame in a single feature-gated call: starts the flight
/// that yields `E(J0)` and the first keystream blocks, GHASHes the
/// ciphertext while it runs, compares the tag branch-free, and only on
/// success CTR-decrypts `data` in place. Returns whether the tag
/// verified; on `false`, `data` still holds the ciphertext.
///
/// # Safety
///
/// The CPU must support the `aes`, `pclmulqdq` and `ssse3` features.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub(crate) unsafe fn open_frame(
    k: &[Block; ROUND_KEYS],
    powers: &[Block; POWERS],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; 16],
) -> bool {
    let [ej0, head @ ..] = flight(k, counter_blocks(nonce, 1));
    let mut digest = Digest::new(powers, aad.len(), data.len());
    digest.absorb_bytes(aad);
    digest.absorb_bytes(data);
    let expected = _mm_xor_si128(digest.finish(), ej0);
    if _mm_movemask_epi8(_mm_cmpeq_epi8(expected, load(tag))) != 0xffff {
        return false;
    }
    cipher(k, nonce, data, head);
    true
}
