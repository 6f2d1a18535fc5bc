//! The paper's full experiment: the Viper (b14-like) processor, 160
//! instruction vectors, all 34,400 single faults — graded through the
//! sharded `seugrade-engine` runtime, then reproducing Table 2 and the
//! classification split of §III.
//!
//! ```text
//! cargo run --release --example viper_campaign
//! ```

use seugrade::experiments::{classification_for, table2_for};
use seugrade::prelude::*;

fn main() {
    let circuit = viper::viper();
    println!(
        "circuit: {} ({} inputs, {} outputs, {} flip-flops — matching ITC'99 b14)",
        circuit.name(),
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_ffs()
    );

    let tb = stimuli::paper_testbench();
    println!(
        "test bench: {} weighted Viper instructions (seed {})\n",
        tb.num_cycles(),
        stimuli::PAPER_SEED
    );

    // Grade the exhaustive fault list once with the sharded engine; the
    // verdicts are bit-identical to the oracle's at any thread count.
    let plan = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy::auto())
        .build();
    let counter = ProgressCounter::new();
    let run = Engine::new(&plan)
        .run_with_progress(&plan, |e| counter.observe(&e))
        .expect("every chunk graded");
    println!(
        "engine: {} ({} faults observed via progress events)\n",
        run.stats(),
        counter.faults_done()
    );

    // Hand the graded outcomes to the emulation models without re-grading.
    let (faults, outcomes) = run.into_single().expect("exhaustive plan");
    let campaign =
        AutonomousCampaign::from_graded(&circuit, &tb, faults, outcomes, TimingConfig::default());

    println!("{}", classification_for(&campaign).render());
    println!("{}", table2_for(&campaign).render());

    // The headline claim: per-fault time vs the 2005 baselines.
    let tmux = campaign.run(Technique::TimeMux);
    println!(
        "time-multiplexed: {:.2} us/fault vs 1300 us/fault fault simulation\n\
         => {:.0}x faster (paper reports ~2000x against its own baseline)",
        tmux.timing.us_per_fault(),
        1300.0 / tmux.timing.us_per_fault()
    );
}
