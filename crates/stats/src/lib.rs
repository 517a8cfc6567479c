//! # stats — numerical building blocks for the Triad reproduction
//!
//! Pure, dependency-light math shared by the protocol and the evaluation
//! harness:
//!
//! - [`Summary`]: online mean/variance/extrema (the §IV-A.1 INC-counter
//!   table),
//! - [`Regression`]: ordinary least squares — Triad's calibration fit over
//!   `(sleep, ΔTSC)` round-trips — plus a robust Theil–Sen variant used by
//!   the hardened protocol,
//! - [`Cdf`]: empirical distributions (Figure 1's inter-AEX delay CDFs),
//! - [`LogHistogram`]: log-linear latency buckets with bounded-relative-error
//!   percentiles (the serving layer's SLO accounting),
//! - [`Interval`] / [`marzullo`]: clock-agreement primitives for Section V's
//!   true-chimer filtering,
//! - drift/ppm conversion helpers matching the paper's reporting units.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod drift;
mod hist;
mod interval;
mod regression;
mod summary;

pub use cdf::Cdf;
pub use drift::{
    drift_rate_ms_per_s, drift_rate_ppm, freq_error_ppm, ppm_to_ms_per_s, ppm_to_s_per_day,
};
pub use hist::LogHistogram;
pub use interval::{marzullo, Agreement, Interval};
pub use regression::{median_in_place, LinearFit, Regression};
pub use summary::Summary;
