//! CPU core frequency model (discrete P-states + scaling governor).
//!
//! §IV-A.1 of the paper pins the monitoring thread's core to the
//! "performance" governor (max frequency, 3500 MHz) and notes that Intel
//! CPUs only allow *discrete pre-determined frequency settings* — which is
//! why INC-counting is accurate but frequency-dependent. The governor model
//! exposes exactly those semantics: a fixed menu of P-states and a policy
//! that selects among them.

/// Frequency scaling policy for a monitored core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Governor {
    /// Always run at the highest P-state (the paper's configuration).
    Performance,
    /// Always run at the lowest P-state.
    Powersave,
    /// Hold a specific P-state index (e.g. an attacker-chosen setting).
    Pinned(usize),
}

/// A core with a discrete set of P-state frequencies.
///
/// # Examples
///
/// ```
/// use tsc::{CoreFrequency, Governor};
///
/// let core = CoreFrequency::paper_default();
/// assert_eq!(core.current_hz(), 3_500_000_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoreFrequency {
    pstates_hz: Vec<f64>,
    governor: Governor,
}

impl CoreFrequency {
    /// Creates a core from an ascending list of P-state frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `pstates_hz` is empty, unsorted, or contains non-positive
    /// frequencies.
    pub fn new(pstates_hz: Vec<f64>, governor: Governor) -> Self {
        assert!(!pstates_hz.is_empty(), "a core needs at least one P-state");
        assert!(pstates_hz.windows(2).all(|w| w[0] < w[1]), "P-states must be strictly ascending");
        assert!(
            pstates_hz.iter().all(|&f| f.is_finite() && f > 0.0),
            "P-state frequencies must be positive"
        );
        if let Governor::Pinned(i) = governor {
            assert!(i < pstates_hz.len(), "pinned P-state {i} out of range");
        }
        CoreFrequency { pstates_hz, governor }
    }

    /// The paper's machine: base 1200 MHz up to a 3500 MHz boost, with the
    /// performance governor keeping the monitoring core at maximum.
    pub fn paper_default() -> Self {
        CoreFrequency::new(vec![1.2e9, 1.8e9, 2.4e9, 2.9e9, 3.5e9], Governor::Performance)
    }

    /// The active scaling policy.
    // tt-lint: allow(test-only-pub) — the frequency-scaling attack that would drive it waits on ROADMAP item 4
    pub fn governor(&self) -> Governor {
        self.governor
    }

    /// Switches the scaling policy.
    ///
    /// # Panics
    ///
    /// Panics if a pinned index is out of range.
    // tt-lint: allow(test-only-pub) — the frequency-scaling attack that would drive it waits on ROADMAP item 4
    pub fn set_governor(&mut self, governor: Governor) {
        if let Governor::Pinned(i) = governor {
            assert!(i < self.pstates_hz.len(), "pinned P-state {i} out of range");
        }
        self.governor = governor;
    }

    /// The discrete P-state menu, ascending.
    // tt-lint: allow(test-only-pub) — the frequency-scaling attack that would drive it waits on ROADMAP item 4
    pub fn pstates_hz(&self) -> &[f64] {
        &self.pstates_hz
    }

    /// The frequency the core currently runs at.
    pub fn current_hz(&self) -> f64 {
        match self.governor {
            Governor::Performance => *self.pstates_hz.last().expect("non-empty"),
            Governor::Powersave => self.pstates_hz[0],
            Governor::Pinned(i) => self.pstates_hz[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governors_select_expected_pstate() {
        let mut core = CoreFrequency::new(vec![1.0e9, 2.0e9, 3.0e9], Governor::Performance);
        assert_eq!(core.current_hz(), 3.0e9);
        core.set_governor(Governor::Powersave);
        assert_eq!(core.current_hz(), 1.0e9);
        core.set_governor(Governor::Pinned(1));
        assert_eq!(core.current_hz(), 2.0e9);
        assert_eq!(core.governor(), Governor::Pinned(1));
    }

    #[test]
    fn paper_default_is_3500mhz_performance() {
        let core = CoreFrequency::paper_default();
        assert_eq!(core.current_hz(), 3.5e9);
        assert_eq!(core.governor(), Governor::Performance);
        assert_eq!(core.pstates_hz().len(), 5);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_pstates_rejected() {
        CoreFrequency::new(vec![2.0e9, 1.0e9], Governor::Performance);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinned_out_of_range_rejected() {
        CoreFrequency::new(vec![1.0e9], Governor::Pinned(3));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_pstates_rejected() {
        CoreFrequency::new(vec![], Governor::Performance);
    }
}
