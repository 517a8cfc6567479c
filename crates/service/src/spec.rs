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

/// A closed-loop population: `clients` virtual users that each wait for
/// their answer (or its timeout), think for a while, and only then ask
/// again — load that self-throttles when the cluster slows down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSpec {
    /// Number of virtual users.
    pub clients: usize,
    /// Mean think time between an answer and the next request
    /// (exponentially distributed).
    pub think: SimDuration,
    /// Whether requests tolerate degraded `TimeReading` answers.
    pub accept_degraded: bool,
}

impl Default for ClosedLoopSpec {
    fn default() -> Self {
        ClosedLoopSpec { clients: 16, think: SimDuration::from_millis(100), accept_degraded: true }
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterSpec {
    /// How long a generator waits for an answer before declaring the
    /// attempt dead and failing over.
    pub timeout: SimDuration,
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// How long a node stays deprioritized after a timeout (it may be
    /// crashed — back off hard).
    pub cooldown: SimDuration,
}

impl Default for RouterSpec {
    fn default() -> Self {
        RouterSpec {
            timeout: SimDuration::from_millis(25),
            max_attempts: 3,
            cooldown: SimDuration::from_millis(250),
        }
    }
}

/// The quorum read policy: panel sizing, the overlap acceptance rule's
/// `f`, and the suspect quarantine/probation knobs (the same
/// threshold-cooldown shape as `triad_core`'s TA circuit breaker, applied
/// to Byzantine suspicion instead of TA failures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumSpec {
    /// Tolerated simultaneous liars. Reads fan out to up to `2f + 1`
    /// nodes and accept on `f + 1` mutually overlapping attestations.
    pub f: usize,
    /// Suspect flags (strikes) before a node is quarantined; a clean
    /// attestation while trusted resets the count.
    pub suspect_threshold: u32,
    /// How long a quarantined node sits out before a half-open probe
    /// may readmit it.
    pub probation: SimDuration,
    /// Seeded jitter added to each probation so simultaneously
    /// quarantined nodes don't rejoin in lockstep. `ZERO` disables the
    /// draw.
    pub probe_jitter: SimDuration,
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
        QuorumSpec {
            f: 1,
            suspect_threshold: 3,
            probation: SimDuration::from_secs(2),
            probe_jitter: SimDuration::from_millis(100),
            suspect_margin: SimDuration::from_millis(10),
        }
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

/// The whole serving layer: one front-end per node plus any number of
/// load generators, all sharing one routing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Per-node front-end parameters (identical across nodes).
    pub frontend: FrontendSpec,
    /// Client-side routing policy (identical across generators).
    pub router: RouterSpec,
    /// Aggregated open-loop arrival processes.
    pub open_loop: Vec<OpenLoopSpec>,
    /// Closed-loop think-time populations.
    pub closed_loop: Vec<ClosedLoopSpec>,
    /// Open-loop quorum read processes.
    pub quorum_loop: Vec<QuorumLoopSpec>,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            frontend: FrontendSpec::default(),
            router: RouterSpec::default(),
            open_loop: vec![OpenLoopSpec::default()],
            closed_loop: Vec::new(),
            quorum_loop: Vec::new(),
        }
    }
}

impl ServiceSpec {
    /// A serving layer with no generators yet; attach them with
    /// [`ServiceSpec::open_loop`] / [`ServiceSpec::closed_loop`].
    pub fn new() -> Self {
        ServiceSpec { open_loop: Vec::new(), ..Default::default() }
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

    /// Attaches an open-loop arrival process.
    #[must_use]
    pub fn open_loop(mut self, spec: OpenLoopSpec) -> Self {
        self.open_loop.push(spec);
        self
    }

    /// Attaches a closed-loop population.
    #[must_use]
    pub fn closed_loop(mut self, spec: ClosedLoopSpec) -> Self {
        self.closed_loop.push(spec);
        self
    }

    /// Attaches an open-loop quorum read process.
    #[must_use]
    pub fn quorum_loop(mut self, spec: QuorumLoopSpec) -> Self {
        self.quorum_loop.push(spec);
        self
    }

    /// Total generator actors this spec will install.
    pub fn generator_count(&self) -> usize {
        self.open_loop.len() + self.closed_loop.len() + self.quorum_loop.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_accumulate_generators() {
        let spec = ServiceSpec::new()
            .open_loop(OpenLoopSpec::default())
            .open_loop(OpenLoopSpec { rate_per_s: 50.0 })
            .closed_loop(ClosedLoopSpec::default())
            .quorum_loop(QuorumLoopSpec::default());
        assert_eq!(spec.generator_count(), 4);
        assert_eq!(spec.open_loop.len(), 2);
        assert_eq!(spec.closed_loop.len(), 1);
        assert_eq!(spec.quorum_loop.len(), 1);
    }

    #[test]
    fn quorum_spec_thresholds() {
        let q = QuorumSpec { f: 2, ..Default::default() };
        assert_eq!(q.panel_size(), 5);
        assert_eq!(q.accept_threshold(), 3);
        assert_eq!(QuorumSpec::default().panel_size(), 3);
    }
}
