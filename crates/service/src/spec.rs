//! Declarative, cloneable descriptions of the serving layer — the data
//! [`crate::install`] turns into front-end and load-generator actors.

use sim::SimDuration;

/// One aggregated open-loop arrival process: a large client population
/// modelled as a single seeded stream of requests that keeps arriving at
/// the offered rate no matter how the cluster is doing — the load shape
/// that actually drives servers into overload. Gaps are exponential
/// (memoryless, Poisson-process arrivals: the aggregate of many
/// independent clients). Every request tolerates degraded `TimeReading`
/// answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Offered rate (requests per simulated second).
    pub rate_per_s: f64,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec { rate_per_s: 1000.0 }
    }
}

/// The per-node serving front-end: a bounded admission queue drained in
/// batches, one enclave timestamp read per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendSpec {
    /// Admission-queue bound; requests beyond it are shed with an
    /// immediate `Overloaded` reply.
    pub queue_cap: usize,
    /// Most requests amortized over one enclave read.
    pub batch_max: usize,
    /// How long an under-full batch waits before flushing anyway. With
    /// `batch_max` this bounds the front-end's drain rate at
    /// `batch_max / batch_window`.
    pub batch_window: SimDuration,
    /// Widening rate of degraded-mode answers while the node stays
    /// degraded (ppm of elapsed degraded time).
    pub degraded_drift_ppm: f64,
}

impl Default for FrontendSpec {
    fn default() -> Self {
        FrontendSpec {
            queue_cap: 256,
            batch_max: 32,
            batch_window: SimDuration::from_millis(2),
            degraded_drift_ppm: 50.0,
        }
    }
}

/// Client-side routing policy: per-node health tracking with failover.
/// The retry budget and the timed-out node's cooldown are the router's
/// constants (`gen.rs`, `router.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterSpec {
    /// How long a generator waits for an answer before declaring the
    /// attempt dead and failing over.
    pub timeout: SimDuration,
}

impl Default for RouterSpec {
    fn default() -> Self {
        RouterSpec { timeout: SimDuration::from_millis(25) }
    }
}

/// The quorum read policy: panel sizing and the overlap acceptance
/// rule's `f` and suspect margin. The quarantine/probation policy behind
/// it is [`crate::QuorumHealth`]'s constants (the same threshold-cooldown
/// shape as `triad_core`'s TA circuit breaker, applied to Byzantine
/// suspicion instead of TA failures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumSpec {
    /// Tolerated simultaneous liars. Reads fan out to up to `2f + 1`
    /// nodes and accept on `f + 1` mutually overlapping attestations.
    pub f: usize,
    /// Slack beyond strict disjointness before an attestation is flagged:
    /// a node is suspected only when its projected interval misses the
    /// agreement region by more than this margin. An in-envelope
    /// adversary can displace the agreement by at most the envelope
    /// width, so a margin at that scale stops it framing honest nodes
    /// with tight intervals; a real liar misses by orders of magnitude
    /// more. `ZERO` restores the strict rule.
    pub suspect_margin: SimDuration,
}

impl Default for QuorumSpec {
    fn default() -> Self {
        QuorumSpec { f: 1, suspect_margin: SimDuration::from_millis(10) }
    }
}

impl QuorumSpec {
    /// Panel size the read fans out to when enough nodes are eligible.
    pub fn panel_size(&self) -> usize {
        2 * self.f + 1
    }

    /// Attestations that must mutually overlap for acceptance.
    pub fn accept_threshold(&self) -> usize {
        self.f + 1
    }
}

/// One aggregated open-loop *quorum read* process: every arrival fans an
/// attestation request out to a whole panel instead of a single node.
/// Gaps are exponential, as in [`OpenLoopSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumLoopSpec {
    /// Offered rate (quorum reads per simulated second).
    pub rate_per_s: f64,
    /// The quorum policy driving panel selection and acceptance.
    pub quorum: QuorumSpec,
}

impl Default for QuorumLoopSpec {
    fn default() -> Self {
        QuorumLoopSpec { rate_per_s: 200.0, quorum: QuorumSpec::default() }
    }
}

/// The whole serving layer: one front-end per node plus at most one load
/// generator of each kind, all sharing one routing policy. Generators
/// take addresses in the order open loop, closed loop, quorum loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSpec {
    /// Per-node front-end parameters (identical across nodes).
    pub frontend: FrontendSpec,
    /// Client-side routing policy (identical across generators).
    pub router: RouterSpec,
    /// The aggregated open-loop arrival process, if any.
    pub open_loop: Option<OpenLoopSpec>,
    /// Whether the closed-loop think-time population runs (see
    /// [`crate::ClosedLoopGen`]).
    pub closed_loop: bool,
    /// The open-loop quorum read process, if any.
    pub quorum_loop: Option<QuorumLoopSpec>,
}

impl ServiceSpec {
    /// A serving layer with no generators yet; attach them with
    /// [`ServiceSpec::open_loop`], [`ServiceSpec::closed_loop`] and
    /// [`ServiceSpec::quorum_loop`].
    pub fn new() -> Self {
        ServiceSpec::default()
    }

    /// Overrides the front-end parameters.
    #[must_use]
    pub fn frontend(mut self, frontend: FrontendSpec) -> Self {
        self.frontend = frontend;
        self
    }

    /// Overrides the routing policy.
    #[must_use]
    pub fn router(mut self, router: RouterSpec) -> Self {
        self.router = router;
        self
    }

    /// Sets the open-loop arrival process.
    #[must_use]
    pub fn open_loop(mut self, spec: OpenLoopSpec) -> Self {
        self.open_loop = Some(spec);
        self
    }

    /// Adds the closed-loop population.
    #[must_use]
    pub fn closed_loop(mut self) -> Self {
        self.closed_loop = true;
        self
    }

    /// Sets the open-loop quorum read process.
    #[must_use]
    pub fn quorum_loop(mut self, spec: QuorumLoopSpec) -> Self {
        self.quorum_loop = Some(spec);
        self
    }

    /// Total generator actors this spec will install.
    pub fn generator_count(&self) -> usize {
        usize::from(self.open_loop.is_some())
            + usize::from(self.closed_loop)
            + usize::from(self.quorum_loop.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_attach_one_generator_of_each_kind() {
        assert_eq!(ServiceSpec::new().generator_count(), 0);
        let spec = ServiceSpec::new()
            .open_loop(OpenLoopSpec::default())
            .open_loop(OpenLoopSpec { rate_per_s: 50.0 })
            .closed_loop()
            .quorum_loop(QuorumLoopSpec::default());
        assert_eq!(spec.generator_count(), 3);
        assert_eq!(
            spec.open_loop,
            Some(OpenLoopSpec { rate_per_s: 50.0 }),
            "the last one set wins"
        );
    }

    #[test]
    fn quorum_spec_thresholds() {
        let q = QuorumSpec { f: 2, ..Default::default() };
        assert_eq!(q.panel_size(), 5);
        assert_eq!(q.accept_threshold(), 3);
        assert_eq!(QuorumSpec::default().panel_size(), 3);
    }
}
