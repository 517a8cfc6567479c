//! The work-stealing parallel cell executor.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::plan::{RunCell, RunPlan};

/// Executes the cells of a [`RunPlan`] on a pool of worker threads.
///
/// Workers pull the next unclaimed cell index from a shared counter
/// (work-stealing by contention: a slow cell never blocks the others),
/// and results are merged back into **plan order** after the pool joins.
/// Because cell seeds are index-derived and reducers see the merged
/// vector, aggregated results are bit-identical for any `jobs` value.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// A runner with `jobs` worker threads; `0` means one per available
    /// core.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            jobs
        };
        Runner { jobs }
    }

    /// The worker-thread count this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every cell and returns the results in plan order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the whole run aborts; no partial
    /// results are returned).
    pub fn run<P, T, F>(&self, plan: &RunPlan<P>, f: F) -> Vec<T>
    where
        P: Sync,
        T: Send,
        F: Fn(&RunCell<P>) -> T + Sync,
    {
        let workers = self.jobs.min(plan.len());
        if workers <= 1 {
            return plan.cells.iter().map(&f).collect();
        }

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = plan.cells.iter().map(|_| None).collect();
        let worker_results: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move |_| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = plan.cells.get(i) else { break };
                            local.push((i, f(cell)));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("runner worker panicked")).collect()
        })
        .expect("crossbeam scope");

        for (i, result) in worker_results.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "cell {i} executed twice");
            slots[i] = Some(result);
        }
        slots.into_iter().map(|s| s.expect("every cell executed")).collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::derive_seed;

    /// One cell per `u64` in `params`, seeds derived from `base`.
    fn seeded_plan(base: u64, params: impl Iterator<Item = u64>) -> RunPlan<u64> {
        RunPlan::with_seeds(params.map(|p| (p, derive_seed(base, p))))
    }

    #[test]
    fn serial_and_parallel_merge_identically() {
        let plan = seeded_plan(9, 0..37);
        let f = |cell: &RunCell<u64>| (cell.index, cell.seed, cell.param * 3);
        let serial = Runner::new(1).run(&plan, f);
        let parallel = Runner::new(8).run(&plan, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 37);
        for (i, &(index, _, tripled)) in serial.iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(tripled, i as u64 * 3);
        }
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let plan = seeded_plan(1, 0..2);
        let out = Runner::new(16).run(&plan, |c| c.param);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn empty_plan_returns_empty() {
        let plan = seeded_plan(1, std::iter::empty());
        let out = Runner::new(4).run(&plan, |c| c.param);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_means_all_cores() {
        assert!(Runner::new(0).jobs() >= 1);
        assert_eq!(Runner::new(3).jobs(), 3);
    }
}
