//! Run plans: the flat cell lists a parameter sweep expands into.
//!
//! A [`RunPlan`] is an ordered list of independent [`RunCell`]s. Cell
//! seeds are a pure function of `(base seed, cell index)` (or supplied
//! explicitly per cell), never of scheduling, so a plan's results are
//! reproducible across `--jobs` settings.

/// The splitmix64 finalizer: a high-quality 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives cell `index`'s seed from `base` (independent splitmix64
/// streams: nearby indices produce uncorrelated seeds).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(base ^ splitmix64(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// One independent unit of work in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCell<P> {
    /// Position in the plan (and in the merged result vector).
    pub index: usize,
    /// The cell's RNG seed.
    pub seed: u64,
    /// The swept parameter.
    pub param: P,
}

/// An ordered list of independent cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan<P> {
    /// The cells, in merge order.
    pub cells: Vec<RunCell<P>>,
}

impl<P> RunPlan<P> {
    /// A plan with explicit per-cell seeds (for sweeps whose historical
    /// seed formulas must be preserved verbatim).
    pub fn with_seeds(cells: impl IntoIterator<Item = (P, u64)>) -> Self {
        RunPlan {
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(index, (param, seed))| RunCell { index, seed, param })
                .collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // splitmix64(0) from the reference implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn explicit_seeds_are_kept_verbatim() {
        let plan = RunPlan::with_seeds([("x", 0xF162), ("y", 0xF163)]);
        assert_eq!(plan.cells[0].seed, 0xF162);
        assert_eq!(plan.cells[1].seed, 0xF163);
        assert_eq!(plan.cells[1].index, 1);
    }
}
