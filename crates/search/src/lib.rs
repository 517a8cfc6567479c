//! # search — adversarial scenario search over the Triad simulator
//!
//! The hand-written chaos suites (E20/E22) exercise fault classes a human
//! thought of. This crate searches for the ones nobody did: a seeded
//! mutation/crossover loop over [`AdversaryGenome`]s — compositions of a
//! [`faults::FaultPlan`], hypervisor TSC manipulations (replayed with the
//! plan by the same `faults::FaultDriver`) and an on-path attack — each
//! evaluated by running the scenario it encodes and scoring the
//! resulting trace. Fitness is lexicographic ([`Fitness`]): a plan that
//! triggers fewer detections always beats one that triggers more, and ties
//! break on the damage metric the [`FitnessTarget`] selects (undetected
//! clock drift, or serving-layer SLO damage).
//!
//! The search is deterministic end to end: every candidate's generator RNG
//! is seeded from `derive_seed(master_seed, candidate_index)`, evaluations
//! go through [`scenario::Runner`] (plan-order merge), and selection
//! tie-breaks on candidate index — so the same master seed yields
//! byte-identical corpora and logs at any `--jobs` setting.
//!
//! Winners are [`shrink`]-minimized (delete-one fixpoint: removing any
//! single remaining genome element strictly worsens fitness) and emitted
//! as text [`Reproducer`] files that `cargo test` replays forever after.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod driver;
mod fitness;
mod genome;
mod mutate;
mod shrink;

pub use corpus::Reproducer;
pub use driver::{search, SearchConfig, SearchOutcome};
pub use fitness::{evaluate, score, Fitness, FitnessTarget};
pub use genome::{AdversaryGenome, GenomeSpace};
pub use mutate::{crossover, mutate, random_genome};
pub use shrink::{delete_one_variants, shrink, ShrinkOutcome};
