//! # scenario — declarative experiment specs and the parallel runner
//!
//! Every experiment in this repository is "a cluster shape + an AEX
//! environment + maybe an attacker + maybe a fault plan, run for a
//! horizon, results reduced". This crate splits that into three layers:
//!
//! - [`ScenarioSpec`]: a *cloneable description* of one such run and the
//!   one way to build a simulated cluster. A spec is plain data: it can be
//!   stored in a grid, shipped to a worker thread, and instantiated any
//!   number of times with different seeds.
//! - [`RunPlan`]: a parameter sweep (and optionally a multi-seed
//!   replication grid) as a flat list of independent [`RunCell`]s, each
//!   with its own seed ([`derive_seed`] derives one from a base seed and
//!   an index).
//! - [`Runner`]: a work-stealing thread pool executing the cells of a
//!   plan. Results are merged back **in cell order**, so the aggregated
//!   output is bit-identical whether the plan ran on 1 thread or 16.
//!
//! The determinism contract: cell seeds depend only on `(base seed, cell
//! index)` — never on thread identity or completion order — and reducers
//! observe results in plan order. `--jobs N` is therefore a pure
//! wall-clock knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod runner;
mod spec;

pub use plan::{derive_seed, splitmix64, RunCell, RunPlan};
pub use runner::Runner;
pub use spec::{AttackSpec, ClientSpec, FaultSpec, NodeImplSpec, ScenarioSpec};
pub use tsc::AexSpec;
