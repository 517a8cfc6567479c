//! # tt-crypto — AES-256-GCM for the Triad protocol messages
//!
//! The paper encrypts all protocol communications with AES-256-GCM (§IV,
//! using the Maxul/SGX-AES-256 library in the original C++ implementation).
//! This crate re-implements the AEAD from scratch so the simulated on-path
//! attacker genuinely operates on ciphertext and timing only — the F+/F–
//! attacks in `attacks` never parse message contents, exactly as in the
//! paper's threat model.
//!
//! ## Scope and caveats
//!
//! This is **simulation-grade** cryptography: functionally correct (NIST
//! SP 800-38D test vectors pass) but not hardened against timing side
//! channels, and the portable table-based AES path is used without
//! cache-attack countermeasures. Do not lift it into a real TEE runtime.
//!
//! ## Backends
//!
//! Two implementations of the primitives coexist and produce
//! byte-identical outputs: the portable `#![deny(unsafe_code)]` table
//! path (always available, the differential oracle) and a runtime-
//! detected AES-NI + PCLMULQDQ fast path — one fused kernel per frame —
//! confined to `backend.rs` / `clmul.rs`. See [`CryptoBackend`].
//!
//! ## Layers
//!
//! - [`Aes256`]: the raw block cipher (FIPS-197),
//! - [`Aes256Gcm`]: one-shot AEAD seal/open (SP 800-38D),
//! - [`SealingKey`]: per-session wrapper with automatic nonce sequencing,
//!   reflection rejection, and batch sealing — what the protocol crates
//!   actually use.

#![deny(unsafe_code)] // allowed, with justification, only in clmul.rs
#![warn(missing_docs)]

mod aes;
mod backend;
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul;
mod gcm;
mod ghash;
pub mod hex;
mod session;

pub use aes::Aes256;
pub use backend::CryptoBackend;
pub use gcm::{Aes256Gcm, AuthError, NONCE_LEN, TAG_LEN};
pub use ghash::{gf_mul, Ghash, GhashKey};
pub use session::SealingKey;
