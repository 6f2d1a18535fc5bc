//! The oracle battery's shared machinery. The independent [`Oracle`]
//! — the event-driven simulator against its own golden run, by the
//! paper's definitions alone, sharing no evaluation code with the
//! compiled tape, the golden span store or either faulty kernel —
//! grades each circuit's fault set once. [`Fixture::check`] grades it
//! again under production configurations along five axes (kernel,
//! trace policy, thread count, span store capacity and entry point) and
//! checks every verdict, or the digest and summary, against the
//! oracle's. `engine_agreement` and `kernel_equivalence` each check one
//! slice of that space; between them, the small registry circuits and
//! generated netlists run the full cross product of the axes, and every
//! other circuit a rotation that visits every axis value.

// Each suite uses part of this module.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::OnceLock;
use std::thread;

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

pub const POLICIES: [usize; 4] = [1, 3, 7, 64];
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
pub const CACHES: [usize; 3] = [0, 1, DEFAULT_WINDOW_CACHE_SPANS];
pub const ENTRIES: [Entry; 3] = [Entry::Run, Entry::Streamed, Entry::Rounds];
pub const KERNELS: [Kernel; 3] = [Kernel::Generic, Kernel::Differential, Kernel::Auto];

/// Circuits with at most this many flip-flops run the full cross
/// product of the axes.
pub const SMALL_FFS: usize = 8;

/// Chunks per round of [`Entry::Rounds`].
const ROUND: usize = 4;

/// How a configuration's verdicts are produced and read back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `Engine::run`: every outcome, in submission order.
    Run,
    /// `Engine::try_run_streamed`: the digest and summary.
    Streamed,
    /// A kept `CampaignState` advanced `ROUND` chunks at a time: the
    /// digest.
    Rounds,
}

/// One production configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub kernel: Kernel,
    pub policy: usize,
    pub threads: usize,
    pub cache: usize,
    pub entry: Entry,
}

impl Config {
    /// `n` configurations in which the axes turn at different rates, so
    /// any `n ≥ 4` visits every value of every axis, `Kernel::Auto`
    /// included.
    pub fn rotation(n: usize, policies: &[usize]) -> Vec<Config> {
        (0..n)
            .map(|i| Config {
                kernel: KERNELS[i % KERNELS.len()],
                policy: policies[i % policies.len()],
                threads: THREADS[(i + 1) % THREADS.len()],
                cache: CACHES[2 * i % CACHES.len()],
                entry: ENTRIES[(i + 1) % ENTRIES.len()],
            })
            .collect()
    }
}

/// The values each axis takes; [`Grid::configs`] is every combination.
#[derive(Clone, Copy)]
pub struct Grid<'a> {
    pub kernels: &'a [Kernel],
    pub policies: &'a [usize],
    pub threads: &'a [usize],
    pub caches: &'a [usize],
    pub entries: &'a [Entry],
}

impl<'a> Grid<'a> {
    /// One value per axis: the values a slice holds still while it
    /// sweeps the axes it is about.
    pub const ONE: Grid<'static> = Grid {
        kernels: &[Kernel::Auto],
        policies: &[7],
        threads: &[2],
        caches: &[DEFAULT_WINDOW_CACHE_SPANS],
        entries: &[Entry::Run],
    };

    /// Every value of every axis, with `policies` as the trace policy
    /// axis.
    pub fn all(policies: &'a [usize]) -> Self {
        Grid {
            kernels: &Kernel::CONCRETE,
            policies,
            threads: &THREADS,
            caches: &CACHES,
            entries: &ENTRIES,
        }
    }

    /// Every combination of the axes' values.
    pub fn configs(&self) -> Vec<Config> {
        let mut all = Vec::new();
        for &kernel in self.kernels {
            for &policy in self.policies {
                for &threads in self.threads {
                    for &cache in self.caches {
                        for &entry in self.entries {
                            all.push(Config { kernel, policy, threads, cache, entry });
                        }
                    }
                }
            }
        }
        all
    }
}

/// The oracle's verdicts of one fault set, in submission order.
pub struct Expected {
    pub faults: Vec<Fault>,
    pub outcomes: Vec<FaultOutcome>,
    pub digest: u64,
    pub summary: GradingSummary,
}

impl Expected {
    pub fn new(faults: Vec<Fault>, outcomes: Vec<FaultOutcome>) -> Self {
        Expected {
            digest: StreamAccumulator::digest_of(&faults, &outcomes),
            summary: GradingSummary::from_outcomes(&outcomes),
            faults,
            outcomes,
        }
    }

    /// The verdicts of `faults`, each looked up in these verdicts.
    pub fn subset(&self, faults: Vec<Fault>) -> Self {
        let verdict: HashMap<Fault, FaultOutcome> =
            self.faults.iter().copied().zip(self.outcomes.iter().copied()).collect();
        let outcomes = faults.iter().map(|f| verdict[f]).collect();
        Expected::new(faults, outcomes)
    }
}

fn label(source: &FaultSource) -> &'static str {
    match source {
        FaultSource::Exhaustive => "exhaustive",
        FaultSource::Sampled { .. } => "sampled",
        FaultSource::List(_) => "list",
        FaultSource::Multi(_) => "multi",
    }
}

/// `faults` in a deterministic Fisher–Yates order.
fn shuffled(mut faults: Vec<Fault>, seed: u64) -> Vec<Fault> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..faults.len()).rev() {
        faults.swap(i, rng.index(i + 1));
    }
    faults
}

/// One circuit and test bench, with the oracle's verdicts of its main
/// fault set: the exhaustive space, or a sample of it on the scale
/// fixtures.
pub struct Fixture {
    pub circuit: Netlist,
    pub tb: Testbench,
    pub source: FaultSource,
    pub all: Expected,
}

impl Fixture {
    /// `circuit` under `tb`, exhaustive, or sampled `count` faults with
    /// seed 5.
    pub fn new(circuit: Netlist, tb: Testbench, sample: Option<usize>) -> Self {
        let (ffs, cycles) = (circuit.num_ffs(), tb.num_cycles());
        let (source, faults) = match sample {
            None => (FaultSource::Exhaustive, FaultList::exhaustive(ffs, cycles).iter().collect()),
            Some(count) => (
                FaultSource::Sampled { count, seed: 5 },
                FaultList::sampled(ffs, cycles, count, 5).as_slice().to_vec(),
            ),
        };
        let outcomes = Oracle::new(&circuit, &tb).run(&faults);
        Fixture { circuit, tb, source, all: Expected::new(faults, outcomes) }
    }

    /// A generated netlist under a 16-cycle random bench, exhaustive.
    pub fn generated(config: &RandomCircuitConfig, seed: u64) -> Self {
        let circuit = random_sequential(config, seed);
        let tb = Testbench::random(circuit.num_inputs(), 16, seed ^ 0x0AC1E);
        Fixture::new(circuit, tb, None)
    }

    pub fn name(&self) -> &str {
        self.circuit.name()
    }

    pub fn num_ffs(&self) -> usize {
        self.circuit.num_ffs()
    }

    /// An engine under `checkpoint:k` (building one runs the golden
    /// machine).
    fn engine(&self, k: usize) -> Engine {
        Engine::for_circuit_with_policy(&self.circuit, &self.tb, TracePolicy::Checkpoint(k))
    }

    /// Grades `source` under every configuration of `configs`, a few at
    /// once, and checks the verdicts against `want`.
    pub fn check(&self, source: &FaultSource, want: &Expected, configs: &[Config]) {
        let mut engines = HashMap::new();
        for cfg in configs {
            engines.entry(cfg.policy).or_insert_with(|| self.engine(cfg.policy));
        }
        par_map(configs, |&cfg| self.check_one(&engines[&cfg.policy], source, want, cfg));
    }

    fn check_one(&self, engine: &Engine, source: &FaultSource, want: &Expected, cfg: Config) {
        let what = format!("{} {}: {cfg:?}", self.name(), label(source));
        let plan = CampaignPlan::builder(&self.circuit, &self.tb)
            .source(source.clone())
            .trace_policy(TracePolicy::Checkpoint(cfg.policy))
            .kernel(cfg.kernel)
            .window_cache(cfg.cache)
            .policy(ShardPolicy { threads: cfg.threads, serial_below: 0 })
            .build();
        match cfg.entry {
            Entry::Run => {
                let run = engine.run(&plan);
                let faults = run.single().map(FaultList::as_slice);
                assert_eq!(faults, Some(want.faults.as_slice()), "{what}: graded faults");
                assert_eq!(run.outcomes(), want.outcomes.as_slice(), "{what}");
            }
            Entry::Streamed => {
                let run = engine.try_run_streamed(&plan).expect("streamed run");
                assert_eq!(run.digest(), want.digest, "{what}");
                assert_eq!(run.summary(), &want.summary, "{what}");
            }
            Entry::Rounds => {
                let opts = ResumeOptions { limit: Some(ROUND), ..ResumeOptions::default() };
                let mut state =
                    CampaignState::<StreamAccumulator>::new(engine, &plan, &opts).expect("state");
                loop {
                    let round = state.advance(engine, &plan, &opts).expect("round");
                    if round.is_complete() {
                        assert_eq!(round.sink.digest(), want.digest, "{what}");
                        break;
                    }
                }
            }
        }
    }

    /// Grades multi-bit upsets through `Engine::run` on every thread
    /// count, each under a different trace policy, and checks them
    /// against a new oracle's verdicts.
    pub fn check_multi(&self, faults: Vec<MultiFault>, policies: &[usize]) {
        let want = Oracle::new(&self.circuit, &self.tb).run_multi(&faults);
        for (i, threads) in THREADS.into_iter().enumerate() {
            let k = policies[i % policies.len()];
            let plan = CampaignPlan::builder(&self.circuit, &self.tb)
                .multi(faults.clone())
                .trace_policy(TracePolicy::Checkpoint(k))
                .policy(ShardPolicy { threads, serial_below: 0 })
                .build();
            let run = self.engine(k).run(&plan);
            assert_eq!(run.outcomes(), want, "{} MBUs, K={k} @ {threads}", self.name());
        }
    }

    /// Grades the main fault set under every configuration of `configs`.
    pub fn check_main(&self, configs: &[Config]) {
        self.check(&self.source, &self.all, configs);
    }

    /// The main fault set as an explicit list in a shuffled order, which
    /// puts each fault of a cycle in another lane, with its verdicts.
    pub fn shuffled_list(&self, seed: u64) -> (FaultSource, Expected) {
        let list = shuffled(self.all.faults.clone(), seed);
        let want = self.all.subset(list.clone());
        let (ffs, cycles) = (self.num_ffs(), self.tb.num_cycles());
        (FaultSource::List(FaultList::from_faults(list, ffs, cycles)), want)
    }

    /// A seeded sample of `percent` % of the exhaustive space, with its
    /// verdicts. Sampled chunks carry faults of several injection cycles.
    pub fn sample(&self, percent: usize, seed: u64) -> (FaultSource, Expected) {
        assert!(matches!(self.source, FaultSource::Exhaustive), "sample of a sample");
        let (ffs, cycles) = (self.num_ffs(), self.tb.num_cycles());
        let count = (ffs * cycles * percent / 100).max(1);
        let drawn = FaultList::sampled(ffs, cycles, count, seed).as_slice().to_vec();
        (FaultSource::Sampled { count, seed }, self.all.subset(drawn))
    }

    /// At most `max` adjacent double upsets, spread over the whole space.
    pub fn some_doubles(&self, max: usize) -> Vec<MultiFault> {
        let ffs = self.num_ffs();
        let all = MultiFault::adjacent_pairs(ffs, self.tb.num_cycles(), 2.min(ffs));
        let stride = all.len().div_ceil(max).max(1);
        all.into_iter().step_by(stride).collect()
    }
}

/// A registry circuit with its test bench, sized for a debug build:
/// exhaustive on all but the two scale fixtures, which are sampled.
fn registry_fixture(name: &str) -> Fixture {
    let circuit = registry::build(name).expect("registered");
    let (cycles, sample) = match circuit.num_ffs() {
        0..=100 => (20, None),
        101..=1000 => (10, None),
        1001..=4000 => (6, Some(384)),
        _ => (4, Some(192)),
    };
    let tb = if circuit.num_inputs() == viper::NUM_INPUTS {
        stimuli::viper_program(cycles, 5)
    } else {
        Testbench::random(circuit.num_inputs(), cycles, 5)
    };
    Fixture::new(circuit, tb, sample)
}

/// Every registry circuit's fixture, in registry order, built and
/// graded by the oracle on first use, once per test binary.
pub fn registry() -> impl Iterator<Item = &'static Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| par_map(&registry::NAMES, |name| registry_fixture(name))).iter()
}

/// The fixture of the registry circuit `name`.
pub fn registry_circuit(name: &str) -> &'static Fixture {
    registry().find(|fixture| fixture.name() == name).expect("registered")
}

/// `f` of every item, in order, computed by one worker per available
/// core (at most four), each taking every `workers`-th item.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let (workers, f) = (cores.clamp(1, 4).min(items.len().max(1)), &f);
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || items.iter().skip(w).step_by(workers).map(f).collect::<Vec<_>>()))
            .collect();
        let mut parts: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("worker").into_iter()).collect();
        (0..items.len()).map(|i| parts[i % workers].next().expect("item")).collect()
    })
}

/// Generated netlists: arbitrary gate mixes, fanout shapes and
/// observability.
pub fn arb_config() -> impl Strategy<Value = RandomCircuitConfig> {
    (2usize..6, 2usize..14, 10usize..80, 1usize..5, 0u32..9).prop_map(
        |(num_inputs, num_ffs, num_gates, num_outputs, observability_num)| RandomCircuitConfig {
            num_inputs,
            num_ffs,
            num_gates,
            num_outputs,
            observability_num,
        },
    )
}
