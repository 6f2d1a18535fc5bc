//! Engine entry points, thread counts, trace policies, span store
//! capacities and fault sets: every registry circuit and generated
//! netlist grades to the independent oracle's verdicts (the oracle
//! battery; see `battery/mod.rs` for the axes).

mod battery;

use battery::{
    arb_config, registry, registry_circuit, Config, Entry, Fixture, Grid, CACHES, ENTRIES,
    POLICIES, THREADS,
};
use proptest::prelude::*;
use seugrade::prelude::*;

/// Every registry circuit's main fault set — the exhaustive space, so
/// the alias walk runs, or a sample on the two scale fixtures — under a
/// six-way rotation of the axes that visits every value of every axis.
#[test]
fn all_engines_agree_on_registry_circuits() {
    for fixture in registry() {
        fixture.check_main(&Config::rotation(6, &POLICIES));
    }
}

/// The event-driven oracle's verdicts are the engine's under the plan
/// builder's defaults on every registry circuit, for single faults and
/// for adjacent double upsets at every thread count.
#[test]
fn event_sim_oracle_agrees_on_fault_outcomes() {
    for fixture in registry() {
        let plan = CampaignPlan::builder(&fixture.circuit, &fixture.tb)
            .source(fixture.source.clone())
            .build();
        let (faults, outcomes) = Engine::new(&plan).run(&plan).into_single().expect("single");
        assert_eq!(faults.as_slice(), fixture.all.faults.as_slice(), "{}", fixture.name());
        assert_eq!(outcomes, fixture.all.outcomes, "{}", fixture.name());
        fixture.check_multi(fixture.some_doubles(96), &POLICIES);
    }
}

/// Lane independence: a shuffled list of every registry circuit's main
/// fault set puts each fault of a cycle in another lane, and every fault
/// keeps the oracle's verdict, in submission order, under a four-way
/// rotation of the axes.
#[test]
fn parallel_outcomes_are_order_independent() {
    for fixture in registry() {
        let (source, want) = fixture.shuffled_list(7);
        fixture.check(&source, &want, &Config::rotation(4, &POLICIES));
    }
}

/// Seeded samples of a third of every exhaustively graded registry
/// circuit's space (the scale fixtures' main sets are samples already)
/// grade to the oracle's verdicts under a four-way rotation of the axes.
#[test]
fn sharded_engine_agrees_on_registry_circuits() {
    for fixture in registry().filter(|f| matches!(f.source, FaultSource::Exhaustive)) {
        let (source, want) = fixture.sample(33, 11);
        fixture.check(&source, &want, &Config::rotation(4, &POLICIES));
    }
}

/// The streaming core end to end on the s5378-class scale fixture: its
/// sampled campaign grades to the oracle's verdicts under `checkpoint:1`
/// and `checkpoint:64`, through every entry point at 1, 2, 4 and 8
/// threads, while the checkpointed golden trace stores no more than a
/// whole-run record would.
#[test]
fn streamed_checkpoint_campaign_agrees_on_the_scale_fixture() {
    let fixture = registry_circuit("s5378g");
    let grid = Grid { policies: &[1, 64], threads: &THREADS, entries: &ENTRIES, ..Grid::ONE };
    fixture.check_main(&grid.configs());
    let engine =
        Engine::for_circuit_with_policy(&fixture.circuit, &fixture.tb, TracePolicy::Checkpoint(64));
    let golden = engine.grader().golden();
    assert!(
        golden.stored_bits() <= golden.dense_equivalent_bits(),
        "checkpointed golden must not out-store a whole-run record"
    );
}

/// Every checkpoint interval `K` — dividing, not dividing, equal to and
/// exceeding b09s's 20-cycle bench — grades to the oracle's verdicts
/// through every entry point, under both concrete kernels.
#[test]
fn trace_policies_agree_across_all_entry_points() {
    let fixture = registry_circuit("b09s");
    let grid = Grid {
        kernels: &Kernel::CONCRETE,
        policies: &[1, 4, 9, 20, 100],
        entries: &ENTRIES,
        ..Grid::ONE
    };
    fixture.check_main(&grid.configs());
}

/// The sharded engine grades every golden-window geometry (`K` smaller
/// than, dividing, not dividing and exceeding the bench) to the oracle's
/// verdicts, fault for fault, at 1, 2, 4 and 8 threads.
#[test]
fn sharded_engine_matches_serial_under_every_window_geometry() {
    for name in ["b03s", "b06s"] {
        let grid = Grid { policies: &[1, 3, 5, 20, 64], threads: &THREADS, ..Grid::ONE };
        registry_circuit(name).check_main(&grid.configs());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated netlists with a random trace policy: the exhaustive
    /// space under the full cross product of the axes — every kernel,
    /// collapse mode, trace policy, thread count, span store capacity
    /// and entry point — grades to the oracle's verdicts, whatever the
    /// shard schedule.
    #[test]
    fn sharded_engine_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let fixture = Fixture::generated(&config, seed);
        fixture.check_main(&Grid::all(&[1, k, 64]).configs());
    }

    /// Random circuits, random checkpoint interval: `checkpoint:K`,
    /// `checkpoint:1` and `checkpoint:64` grade to the oracle's verdicts
    /// through every entry point, under both concrete kernels.
    #[test]
    fn checkpoint_intervals_agree_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
    ) {
        let fixture = Fixture::generated(&config, seed);
        let grid = Grid {
            kernels: &Kernel::CONCRETE,
            policies: &[1, k, 64],
            entries: &ENTRIES,
            ..Grid::ONE
        };
        fixture.check_main(&grid.configs());
    }

    /// Random checkpoint interval, shuffled fault order, adversarial
    /// span store capacities (none, one span, the default): the digest
    /// is the oracle's regardless — the store only ever changes how
    /// often golden spans are replayed, never a verdict.
    #[test]
    fn window_cache_never_changes_verdicts(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
        shuffle_seed in 0u64..1000,
    ) {
        let fixture = Fixture::generated(&config, seed);
        let (source, want) = fixture.shuffled_list(shuffle_seed);
        let grid = Grid {
            policies: &[1, k, 64],
            caches: &CACHES,
            entries: &[Entry::Streamed, Entry::Rounds],
            ..Grid::ONE
        };
        fixture.check(&source, &want, &grid.configs());
    }

    /// Streamed, materialized and round-by-round campaigns grade
    /// generated netlists to the oracle's verdicts at 1, 2, 4 and 8
    /// threads (outcomes in order, or summary and digest).
    #[test]
    fn streamed_matches_materialized_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
    ) {
        let fixture = Fixture::generated(&config, seed);
        let grid = Grid { threads: &THREADS, entries: &ENTRIES, ..Grid::ONE };
        fixture.check_main(&grid.configs());
    }

    /// Every adjacent double upset of a generated netlist grades to the
    /// oracle's verdict at 1, 2, 4 and 8 threads.
    #[test]
    fn sharded_mbu_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..500,
        k in 1usize..24,
    ) {
        let fixture = Fixture::generated(&config, seed);
        fixture.check_multi(fixture.some_doubles(usize::MAX), &[1, k, 64]);
    }
}
