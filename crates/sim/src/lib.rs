//! # sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Triad trusted-time reproduction: a single-threaded,
//! seeded discrete-event scheduler. Every higher layer (TSC models, the
//! network fabric, Triad nodes, the Time Authority, attackers) is an
//! [`Actor`] reacting to timestamped events; *reference time* — the Time
//! Authority's real time in the paper — is the simulation clock itself.
//!
//! Determinism contract: given the same world value, the same actors
//! registered in the same order, and the same seed, a simulation dispatches
//! a bit-identical event sequence. All randomness must be drawn from
//! [`Ctx::rng`]; all time must come from [`Ctx::now`].
//!
//! The scheduler's deadline queue is public as [`EventQueue`]: drivers
//! that run protocol machines without a simulation arm their timers in
//! one of their own, so every driver orders and cancels timers by the same
//! `(deadline, arming order)` key and generation-checked [`EventId`].
//!
//! ## Example
//!
//! ```
//! use sim::{Actor, Ctx, SimDuration, Simulation};
//!
//! /// Counts how often it is woken up.
//! struct Heartbeat { beats: u32 }
//!
//! impl Actor<Vec<f64>, ()> for Heartbeat {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<f64>, ()>) {
//!         ctx.schedule_in(SimDuration::from_millis(250), ());
//!     }
//!     fn on_event(&mut self, ctx: &mut Ctx<'_, Vec<f64>, ()>, _ev: ()) {
//!         self.beats += 1;
//!         ctx.world.push(ctx.now().as_secs_f64());
//!         if self.beats < 4 {
//!             ctx.schedule_in(SimDuration::from_millis(250), ());
//!         }
//!     }
//! }
//!
//! let mut simulation = Simulation::new(Vec::new(), 0xBEEF);
//! simulation.add_actor(Box::new(Heartbeat { beats: 0 }));
//! simulation.run();
//! assert_eq!(simulation.world(), &[0.25, 0.5, 0.75, 1.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod event;
mod simulation;
mod time;

pub use actor::{Actor, ActorId};
pub use event::{EventId, EventQueue};
pub use simulation::{Ctx, Simulation};
pub use time::{SimDuration, SimTime};
