//! Campaign plans: what to grade, how to shard it.

use std::fmt;

use seugrade_faultsim::{Collapse, FaultList, MultiFault, DEFAULT_WINDOW_CACHE_SPANS};
use seugrade_netlist::Netlist;
use seugrade_sim::{Kernel, Testbench, TracePolicy};

/// The three autonomous fault-injection techniques of the paper.
///
/// The enum lives in the engine crate because campaign plans are
/// technique-aware; `seugrade-emulation` re-exports it from its historical
/// home (`campaign::Technique`), so both paths name the same type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Mask flip-flop per circuit flip-flop; full test-bench replay per
    /// fault.
    MaskScan,
    /// Shadow scan chain inserting precomputed faulty states.
    StateScan,
    /// Figure-1 instruments; golden/faulty time multiplexing with
    /// checkpointing and early classification.
    TimeMux,
}

impl Technique {
    /// All techniques in the paper's presentation order.
    pub const ALL: [Technique; 3] =
        [Technique::MaskScan, Technique::StateScan, Technique::TimeMux];

    /// Table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Technique::MaskScan => "Mask Scan",
            Technique::StateScan => "State Scan",
            Technique::TimeMux => "Time Multiplex.",
        }
    }

    /// Grading classes the technique can natively distinguish in
    /// hardware: mask-scan sees only failure/no-failure (1 result bit in
    /// Table 1), the others all three.
    #[must_use]
    pub fn native_classes(self) -> usize {
        match self {
            Technique::MaskScan => 2,
            _ => 3,
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a campaign's faults come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSource {
    /// The complete `flip-flops × cycles` single-fault list (the paper's
    /// 34,400 for b14/160).
    Exhaustive,
    /// A deterministic uniform sample of the exhaustive list.
    Sampled {
        /// Number of faults to draw.
        count: usize,
        /// Sampling seed (same seed ⇒ same faults, any thread count).
        seed: u64,
    },
    /// An explicit fault list supplied by the caller.
    List(FaultList),
    /// Multi-bit upsets (each fault flips several flip-flops at once).
    Multi(Vec<MultiFault>),
}

/// How a fault list is split across worker threads.
///
/// Shards are 64-lane batches of faults sorted by injection cycle,
/// pulled from a shared chunk queue by each worker; the policy only
/// controls how many workers pull and when sharding is worth it at all.
/// Outcomes never depend on the policy — the engine merges per-shard
/// results back into submission order, so every thread count produces
/// bit-identical verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Worker threads; `0` means "use all available parallelism".
    pub threads: usize,
    /// Campaigns smaller than this run on the calling thread (spawning
    /// workers costs more than it saves on tiny fault lists).
    pub serial_below: usize,
}

impl ShardPolicy {
    /// All available parallelism, serial fallback for small campaigns.
    #[must_use]
    pub fn auto() -> Self {
        ShardPolicy { threads: 0, serial_below: 256 }
    }

    /// Single-threaded execution (the deterministic reference schedule).
    #[must_use]
    pub fn serial() -> Self {
        ShardPolicy { threads: 1, serial_below: 0 }
    }

    /// Exactly `threads` workers, sharding even the smallest campaigns
    /// (used by the agreement tests to exercise the queue).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a shard policy needs at least one thread");
        ShardPolicy { threads, serial_below: 0 }
    }

    /// The concrete worker count this policy resolves to.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
    }
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

/// A fully-specified campaign: circuit × test bench × fault source ×
/// techniques × shard policy.
///
/// Built with [`CampaignPlan::builder`]; executed by an
/// [`Engine`](crate::Engine) (or the [`execute`](Self::execute)
/// convenience).
#[derive(Clone, Debug)]
pub struct CampaignPlan<'a> {
    circuit: &'a Netlist,
    tb: &'a Testbench,
    source: FaultSource,
    techniques: Vec<Technique>,
    policy: ShardPolicy,
    trace_policy: TracePolicy,
    collapse: Collapse,
    window_cache: usize,
    kernel: Kernel,
}

impl<'a> CampaignPlan<'a> {
    /// Starts a plan for one circuit / test-bench pair.
    ///
    /// Defaults: exhaustive fault list, all three techniques,
    /// [`ShardPolicy::auto`], [`TracePolicy::default`] (`checkpoint:64`),
    /// [`Collapse::Early`], a
    /// [`DEFAULT_WINDOW_CACHE_SPANS`]-span golden span cache per run,
    /// [`Kernel::Auto`].
    #[must_use]
    pub fn builder(circuit: &'a Netlist, tb: &'a Testbench) -> CampaignPlanBuilder<'a> {
        CampaignPlanBuilder {
            circuit,
            tb,
            source: FaultSource::Exhaustive,
            techniques: Technique::ALL.to_vec(),
            policy: ShardPolicy::auto(),
            trace_policy: TracePolicy::default(),
            collapse: Collapse::Early,
            window_cache: DEFAULT_WINDOW_CACHE_SPANS,
            kernel: Kernel::Auto,
        }
    }

    /// The circuit under test.
    #[must_use]
    pub fn circuit(&self) -> &'a Netlist {
        self.circuit
    }

    /// The test bench driving the campaign.
    #[must_use]
    pub fn testbench(&self) -> &'a Testbench {
        self.tb
    }

    /// The fault source.
    #[must_use]
    pub fn source(&self) -> &FaultSource {
        &self.source
    }

    /// The techniques this campaign targets (informational; grading
    /// verdicts are technique-independent).
    #[must_use]
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// The shard policy.
    #[must_use]
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// The golden-trace storage policy an engine built for this plan
    /// grades under (verdicts are policy-independent; memory and replay
    /// cost are not).
    #[must_use]
    pub fn trace_policy(&self) -> TracePolicy {
        self.trace_policy
    }

    /// The early-collapse mode grading runs under (verdicts are
    /// collapse-independent; the work done is not).
    #[must_use]
    pub fn collapse(&self) -> Collapse {
        self.collapse
    }

    /// Golden span-cache capacity in spans (0 disables caching): the size
    /// of the one bit-span store every worker of a run shares, whichever
    /// kernel grades. A miss rebuilds up to half of it (at most 64
    /// spans) in one replay pass.
    /// Affects replay cost only, never verdicts — which is also why it
    /// is excluded from resume fingerprints: a campaign checkpointed
    /// under one cache size (or collapse mode) can resume under another.
    #[must_use]
    pub fn window_cache(&self) -> usize {
        self.window_cache
    }

    /// The faulty-evaluation [`Kernel`] workers grade with. A pure speed
    /// knob: every kernel produces bit-identical verdicts (the
    /// oracle battery pins them), so — like the window cache —
    /// it is excluded from resume fingerprints: a campaign checkpointed
    /// under one kernel can resume under another.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Builds an engine for this plan and runs it once.
    #[must_use]
    pub fn execute(&self) -> crate::CampaignRun {
        crate::Engine::new(self).run(self)
    }
}

/// Builder for [`CampaignPlan`].
#[derive(Clone, Debug)]
pub struct CampaignPlanBuilder<'a> {
    circuit: &'a Netlist,
    tb: &'a Testbench,
    source: FaultSource,
    techniques: Vec<Technique>,
    policy: ShardPolicy,
    trace_policy: TracePolicy,
    collapse: Collapse,
    window_cache: usize,
    kernel: Kernel,
}

impl<'a> CampaignPlanBuilder<'a> {
    /// Sets an arbitrary fault source.
    #[must_use]
    pub fn source(mut self, source: FaultSource) -> Self {
        self.source = source;
        self
    }

    /// Grades a deterministic uniform sample of `count` faults.
    #[must_use]
    pub fn sampled(self, count: usize, seed: u64) -> Self {
        self.source(FaultSource::Sampled { count, seed })
    }

    /// Grades an explicit fault list.
    #[must_use]
    pub fn faults(self, list: FaultList) -> Self {
        self.source(FaultSource::List(list))
    }

    /// Grades multi-bit upsets.
    #[must_use]
    pub fn multi(self, faults: Vec<MultiFault>) -> Self {
        self.source(FaultSource::Multi(faults))
    }

    /// Restricts the campaign to the given techniques.
    ///
    /// # Panics
    ///
    /// Panics if `techniques` is empty.
    #[must_use]
    pub fn techniques(mut self, techniques: &[Technique]) -> Self {
        assert!(!techniques.is_empty(), "a campaign needs at least one technique");
        self.techniques = techniques.to_vec();
        self
    }

    /// Sets the shard policy.
    #[must_use]
    pub fn policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`ShardPolicy::with_threads`].
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.policy(ShardPolicy::with_threads(threads))
    }

    /// Sets the golden-trace checkpoint interval
    /// ([`TracePolicy::Checkpoint`] bounds golden memory at
    /// `O(FFs × cycles / K)`; verdicts never change).
    ///
    /// # Panics
    ///
    /// Panics if the policy is `Checkpoint(0)`.
    #[must_use]
    pub fn trace_policy(mut self, policy: TracePolicy) -> Self {
        assert!(
            !matches!(policy, TracePolicy::Checkpoint(0)),
            "checkpoint interval must be at least 1"
        );
        self.trace_policy = policy;
        self
    }

    /// Sets the [`Collapse`] mode ([`Collapse::Horizon`] disables early
    /// fault collapse — useful only as a benchmark baseline; verdicts
    /// never change).
    #[must_use]
    pub fn collapse(mut self, collapse: Collapse) -> Self {
        self.collapse = collapse;
        self
    }

    /// Sets the capacity, in replayed spans, of the run's one golden
    /// span store, shared by the whole worker pool; half of it (at most
    /// 64) is also the replay batch (0 disables caching and replays one
    /// span per miss; verdicts never change).
    #[must_use]
    pub fn window_cache(mut self, spans: usize) -> Self {
        self.window_cache = spans;
        self
    }

    /// Sets the faulty-evaluation [`Kernel`] ([`Kernel::Auto`] lets the
    /// grader pick; verdicts never change).
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Finalizes the plan.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the circuit's
    /// inputs.
    #[must_use]
    pub fn build(self) -> CampaignPlan<'a> {
        assert_eq!(
            self.tb.num_inputs(),
            self.circuit.num_inputs(),
            "test bench width does not match circuit"
        );
        CampaignPlan {
            circuit: self.circuit,
            tb: self.tb,
            source: self.source,
            techniques: self.techniques,
            policy: self.policy,
            trace_policy: self.trace_policy,
            collapse: self.collapse,
            window_cache: self.window_cache,
            kernel: self.kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators;

    use super::*;

    #[test]
    fn builder_defaults() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 8);
        let plan = CampaignPlan::builder(&circuit, &tb).build();
        assert_eq!(plan.source(), &FaultSource::Exhaustive);
        assert_eq!(plan.techniques(), &Technique::ALL);
        assert_eq!(plan.policy(), &ShardPolicy::auto());
        assert_eq!(plan.collapse(), Collapse::Early);
        assert_eq!(plan.window_cache(), DEFAULT_WINDOW_CACHE_SPANS);
        assert_eq!(plan.kernel(), Kernel::Auto);
    }

    #[test]
    fn builder_overrides() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 8);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .sampled(10, 7)
            .techniques(&[Technique::TimeMux])
            .threads(2)
            .collapse(Collapse::Horizon)
            .window_cache(0)
            .kernel(Kernel::Generic)
            .build();
        assert_eq!(plan.source(), &FaultSource::Sampled { count: 10, seed: 7 });
        assert_eq!(plan.techniques(), &[Technique::TimeMux]);
        assert_eq!(plan.collapse(), Collapse::Horizon);
        assert_eq!(plan.window_cache(), 0);
        assert_eq!(plan.kernel(), Kernel::Generic);
        assert_eq!(plan.policy().threads, 2);
        assert_eq!(plan.policy().serial_below, 0);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ShardPolicy::with_threads(3).resolved_threads(), 3);
        assert!(ShardPolicy::auto().resolved_threads() >= 1);
        assert_eq!(ShardPolicy::serial().resolved_threads(), 1);
    }

    #[test]
    fn technique_labels_and_classes() {
        assert_eq!(Technique::MaskScan.label(), "Mask Scan");
        assert_eq!(Technique::TimeMux.to_string(), "Time Multiplex.");
        assert_eq!(Technique::MaskScan.native_classes(), 2);
        assert_eq!(Technique::StateScan.native_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match circuit")]
    fn mismatched_bench_rejected() {
        let circuit = generators::shift_register(4); // 1 input
        let tb = Testbench::constant_low(3, 8);
        let _ = CampaignPlan::builder(&circuit, &tb).build();
    }
}
