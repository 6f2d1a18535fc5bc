//! Property-based tests over generated circuits: the invariants that the
//! whole pipeline must satisfy regardless of circuit shape.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

fn arb_config() -> impl Strategy<Value = RandomCircuitConfig> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The oracle and the bit-parallel campaign engine agree on arbitrary
    /// circuits.
    #[test]
    fn engines_agree(config in arb_config(), seed in 0u64..1000, tb_seed in 0u64..1000) {
        let circuit = random_sequential(&config, seed);
        let cycles = 18usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, tb_seed);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let oracle = Oracle::new(&circuit, &tb).run(faults.as_slice());
        let run = CampaignPlan::builder(&circuit, &tb).threads(2).build().execute();
        prop_assert_eq!(oracle.as_slice(), run.outcomes());
    }

    /// Outcome invariants: detection/convergence never precede injection,
    /// never exceed the bench, and carry the right class.
    #[test]
    fn outcome_invariants(config in arb_config(), seed in 0u64..1000) {
        let circuit = random_sequential(&config, seed);
        let cycles = 20usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0xABCD);
        let run = CampaignPlan::builder(&circuit, &tb).build().execute();
        let faults = run.single().expect("exhaustive plans grade single faults");
        for (fault, &outcome) in faults.iter().zip(run.outcomes()) {
            match outcome.class {
                FaultClass::Failure => {
                    let u = outcome.detect_cycle.expect("failure has detect cycle");
                    prop_assert!(u >= fault.cycle);
                    prop_assert!((u as usize) < cycles);
                    prop_assert!(outcome.converge_cycle.is_none());
                }
                FaultClass::Silent => {
                    let u = outcome.converge_cycle.expect("silent has converge cycle");
                    prop_assert!(u >= fault.cycle);
                    prop_assert!((u as usize) < cycles);
                    prop_assert!(outcome.detect_cycle.is_none());
                }
                FaultClass::Latent => {
                    prop_assert!(outcome.detect_cycle.is_none());
                    prop_assert!(outcome.converge_cycle.is_none());
                }
            }
        }
    }

    /// Campaign timing lower bounds: every technique pays at least its
    /// structural cost per fault.
    #[test]
    fn timing_lower_bounds(config in arb_config(), seed in 0u64..1000) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x1234);
        let campaign = AutonomousCampaign::new(&circuit, &tb);
        let n_faults = campaign.faults().len() as u64;

        let mask = campaign.run(Technique::MaskScan).timing;
        // Mask-scan replays at least (injection cycle + 1) per fault.
        let min_mask: u64 = campaign
            .faults()
            .iter()
            .map(|f| u64::from(f.cycle) + 1)
            .sum();
        prop_assert!(mask.run_cycles >= min_mask);

        let state = campaign.run(Technique::StateScan).timing;
        prop_assert!(state.scan_cycles == n_faults * circuit.num_ffs() as u64);

        let tmux = campaign.run(Technique::TimeMux).timing;
        // Two emulation clocks per emulated bench cycle, at least one
        // cycle emulated per fault.
        prop_assert!(tmux.run_cycles >= 2 * n_faults);
        prop_assert!(tmux.inject_cycles == n_faults);
    }

    /// TMR makes every single fault non-failing on arbitrary circuits.
    #[test]
    fn tmr_always_eliminates_failures(config in arb_config(), seed in 0u64..500) {
        let circuit = random_sequential(&config, seed);
        let cycles = 12usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x77);
        let hardened = tmr(&circuit);
        let run = CampaignPlan::builder(&hardened, &tb).build().execute();
        let summary = run.summary();
        prop_assert_eq!(summary.count(FaultClass::Failure), 0);
        // And the fault heals: no latents either (voters resynchronize).
        prop_assert_eq!(summary.count(FaultClass::Latent), 0);
    }

    /// SNL text round-trips preserve netlist structure on arbitrary
    /// circuits.
    #[test]
    fn snl_roundtrip(config in arb_config(), seed in 0u64..1000) {
        let circuit = random_sequential(&config, seed);
        let text = seugrade_netlist::text::emit(&circuit);
        let back = seugrade_netlist::text::parse(&text).expect("parses");
        prop_assert_eq!(back.num_cells(), circuit.num_cells());
        prop_assert_eq!(back.num_ffs(), circuit.num_ffs());
        prop_assert_eq!(back.ff_init_values(), circuit.ff_init_values());
        // Functional equivalence on a short random bench.
        let tb = Testbench::random(circuit.num_inputs(), 10, seed);
        let a = CompiledSim::new(&circuit).run_golden(&tb);
        let b = CompiledSim::new(&back).run_golden(&tb);
        prop_assert_eq!(a, b);
    }

    /// LUT mapping is sound: every mapped netlist has enough LUTs to
    /// cover its outputs and respects the input bound.
    #[test]
    fn lut_mapping_bounds(config in arb_config(), seed in 0u64..1000) {
        let circuit = random_sequential(&config, seed);
        let cfg = MapperConfig::virtex_e();
        let mapping = map_luts(&circuit, &cfg);
        for lut in mapping.luts() {
            prop_assert!(lut.num_inputs() <= cfg.lut_inputs);
            prop_assert!(lut.num_inputs() >= 1);
        }
        // A LUT network can never be larger than the 2-input gate count
        // after decomposition, nor smaller than literals/k.
        prop_assert!(mapping.num_luts() <= circuit.num_gates().max(1) * 2);
    }
}
