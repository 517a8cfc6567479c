//! Expansion of parameter sweeps and seed grids into flat run plans.
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

/// A replication grid: `count` independent base seeds derived from one
/// root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedGrid {
    /// The root seed.
    pub base: u64,
    /// Number of replications.
    pub count: usize,
}

impl SeedGrid {
    /// Builds the grid.
    pub fn new(base: u64, count: usize) -> Self {
        SeedGrid { base, count }
    }

    /// The derived base seeds, one per replication.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.count as u64).map(|i| derive_seed(self.base, i)).collect()
    }
}

/// An ordered parameter sweep, expandable into a [`RunPlan`] with an
/// explicit seed per point or crossed with a [`SeedGrid`] for multi-seed
/// replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamGrid<P> {
    /// The sweep points, in report order.
    pub params: Vec<P>,
}

impl<P: Clone> ParamGrid<P> {
    /// Builds the grid.
    pub fn new(params: impl Into<Vec<P>>) -> Self {
        ParamGrid { params: params.into() }
    }

    /// One cell per parameter with an explicit seed formula (preserves
    /// historical per-experiment seed derivations).
    pub fn plan_seeded(&self, seed_of: impl Fn(&P) -> u64) -> RunPlan<P> {
        RunPlan::with_seeds(self.params.iter().map(|p| (p.clone(), seed_of(p))))
    }

    /// The cross product with a replication grid: for every base seed
    /// `r`, every parameter `j`, one cell with seed
    /// `derive_seed(seeds[r], j)` and param `(r, P)`. Replications are
    /// the outer loop, so the first `params.len()` cells are replication
    /// 0 in sweep order.
    pub fn plan_replicated(&self, grid: &SeedGrid) -> RunPlan<(usize, P)> {
        let mut cells = Vec::with_capacity(grid.count * self.params.len());
        for (r, base) in grid.seeds().into_iter().enumerate() {
            for (j, p) in self.params.iter().enumerate() {
                cells.push(RunCell {
                    index: cells.len(),
                    seed: derive_seed(base, j as u64),
                    param: (r, p.clone()),
                });
            }
        }
        RunPlan { cells }
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

    #[test]
    fn replicated_plan_crosses_seeds_and_params() {
        let grid = ParamGrid::new(vec![10u32, 20]);
        let plan = grid.plan_replicated(&SeedGrid::new(7, 3));
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.cells[0].param, (0, 10));
        assert_eq!(plan.cells[3].param, (1, 20));
        assert_eq!(plan.cells[5].param, (2, 20));
        // Indices are dense and ordered.
        for (i, c) in plan.cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // All 6 seeds distinct.
        let mut seeds: Vec<u64> = plan.cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
    }
}
