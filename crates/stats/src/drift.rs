//! Clock-drift unit helpers (parts-per-million, rates).
//!
//! The paper reports drift two ways: calibration error as a frequency offset
//! in ppm (e.g. NTP's 15 ppm bound, Triad's ~110 ppm effective drift) and
//! attack-induced drift as a rate (e.g. −91 ms/s under F+). These helpers
//! convert between the representations used across experiments.

/// Frequency calibration error in parts-per-million.
///
/// Positive means the calibrated frequency *overestimates* the true one
/// (the clock runs slow — an F+ attack outcome).
///
/// # Examples
///
/// ```
/// let ppm = stats::freq_error_ppm(3_190.0e6, 2_900.0e6);
/// assert!((ppm - 100_000.0).abs() < 1.0); // +10% = 1e5 ppm
/// ```
pub fn freq_error_ppm(calibrated_hz: f64, true_hz: f64) -> f64 {
    (calibrated_hz - true_hz) / true_hz * 1e6
}

/// Clock drift rate in ppm implied by a frequency miscalibration.
///
/// A clock dividing true TSC ticks by an overestimated frequency runs slow:
/// `rate = f_true / f_calib - 1`. Returned in ppm; negative = clock behind
/// reference (F+ attack), positive = clock ahead (F– attack).
///
/// # Examples
///
/// ```
/// // F+ attack: f_calib = 1.1 * f_true → ≈ −90_909 ppm ≈ −91 ms/s.
/// let ppm = stats::drift_rate_ppm(1.1 * 2.9e9, 2.9e9);
/// assert!((ppm + 90_909.0).abs() < 1.0);
/// ```
pub fn drift_rate_ppm(calibrated_hz: f64, true_hz: f64) -> f64 {
    (true_hz / calibrated_hz - 1.0) * 1e6
}

/// Converts a drift rate in ppm to milliseconds of drift per second.
pub fn ppm_to_ms_per_s(ppm: f64) -> f64 {
    ppm / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_round_numbers() {
        assert!((freq_error_ppm(2_900.29e6, 2_900.0e6) - 100.0).abs() < 1e-6);
        assert!((freq_error_ppm(2_899.71e6, 2_900.0e6) + 100.0).abs() < 1e-6);
        assert_eq!(freq_error_ppm(2.9e9, 2.9e9), 0.0);
    }

    #[test]
    fn drift_sign_convention_matches_paper() {
        // F+ (calib too high) → negative drift (clock slow).
        assert!(drift_rate_ppm(3.19e9, 2.9e9) < 0.0);
        // F− (calib too low) → positive drift (clock fast).
        assert!(drift_rate_ppm(2.61e9, 2.9e9) > 0.0);
        // Paper: F− with 0.9 factor → +111 ms/s.
        let ppm = drift_rate_ppm(0.9 * 2.9e9, 2.9e9);
        assert!((ppm_to_ms_per_s(ppm) - 111.1).abs() < 0.1);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ppm_to_ms_per_s(110.0), 0.11);
    }
}
