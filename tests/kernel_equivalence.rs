//! The faulty-machine kernels: generic, differential and `auto` grade
//! every registry circuit and generated netlist to the independent
//! oracle's verdicts (the oracle battery; see `battery/mod.rs` for the
//! axes).

mod battery;

use battery::{arb_config, registry, Fixture, Grid, KERNELS, POLICIES, SMALL_FFS};
use proptest::prelude::*;
use seugrade::prelude::*;

/// Every registry circuit grades to the oracle's verdicts under both
/// concrete kernels; the circuits of at most `SMALL_FFS` flip-flops
/// under the full cross product of the axes — every kernel, trace
/// policy, thread count, span store capacity and entry point.
#[test]
fn kernels_agree_on_every_registry_circuit() {
    let mut small = 0;
    for fixture in registry() {
        if fixture.num_ffs() <= SMALL_FFS {
            small += 1;
            fixture.check_main(&Grid::all(&POLICIES).configs());
        } else {
            let grid = Grid { kernels: &Kernel::CONCRETE, ..Grid::ONE };
            fixture.check_main(&grid.configs());
        }
    }
    assert!(small >= 5, "{small} small circuits");
}

/// `Kernel::Auto` grades every registry circuit to the oracle's
/// verdicts — the resolver may pick either concrete kernel without
/// changing a verdict.
#[test]
fn auto_kernel_matches_every_concrete_kernel() {
    for fixture in registry() {
        fixture.check_main(&Grid::ONE.configs());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated netlists — arbitrary gate mixes, fanout shapes and
    /// observability — grade to the oracle's verdicts under every kernel,
    /// checkpointed at 1, a random `K` and 64.
    #[test]
    fn kernels_agree_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let fixture = Fixture::generated(&config, seed);
        let grid = Grid { kernels: &KERNELS, policies: &[1, k, 64], ..Grid::ONE };
        fixture.check_main(&grid.configs());
    }

    /// Sampled campaigns pack faults from different injection cycles
    /// into one chunk. Samples of random density on generated netlists
    /// grade to the oracle's verdicts under both concrete kernels, under
    /// `checkpoint:1` and a random `K`.
    #[test]
    fn staggered_sampled_campaigns_match_serial(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
        percent in 1usize..100,
    ) {
        let fixture = Fixture::generated(&config, seed);
        let (source, want) = fixture.sample(percent, seed);
        let grid = Grid { kernels: &Kernel::CONCRETE, policies: &[1, k], ..Grid::ONE };
        fixture.check(&source, &want, &grid.configs());
    }
}
