//! The full design-hardening loop the paper's introduction motivates:
//! grade a circuit, find its weak flip-flops, apply TMR, and show the
//! failure rate collapse — then price the protection in LUTs/FFs.
//!
//! ```text
//! cargo run --release --example hardening_loop
//! ```

use seugrade::prelude::*;

fn grade(circuit: &Netlist, tb: &Testbench) -> (GradingSummary, Vec<FaultOutcome>) {
    let run = CampaignPlan::builder(circuit, tb).policy(ShardPolicy::auto()).build().execute();
    (run.summary().clone(), run.outcomes().to_vec())
}

fn main() {
    let circuit = registry::build("b13s").expect("registered circuit");
    let tb = Testbench::random(circuit.num_inputs(), 160, 11);

    // 1. Baseline grading.
    let (summary, outcomes) = grade(&circuit, &tb);
    println!("unhardened {}: {summary}", circuit.name());

    // 2. Weak-area map: failures per flip-flop.
    let grader = Grader::new(&circuit, &tb);
    let faults = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let map = grader.failure_map(faults.as_slice(), &outcomes);
    let mut ranked: Vec<(usize, usize)> = map.iter().copied().enumerate().collect();
    ranked.sort_by_key(|&(_, fails)| std::cmp::Reverse(fails));
    println!("\nmost vulnerable flip-flops:");
    for &(ff, fails) in ranked.iter().take(5) {
        let sig = circuit.ff_signal(FfIndex::new(ff));
        println!(
            "  {:<12} {fails:>4} failing faults",
            circuit.signal_label(sig)
        );
    }

    // 3. Harden with TMR and regrade.
    let hardened = tmr(&circuit);
    let (h_summary, _) = grade(&hardened, &tb);
    println!(
        "\nTMR-hardened {}: {h_summary}",
        hardened.name()
    );
    assert_eq!(h_summary.count(FaultClass::Failure), 0, "TMR corrects all single SEUs");

    // 4. Detection-only alternative: duplication with comparison.
    let detected = dwc(&circuit);
    let (d_summary, _) = grade(&detected, &tb);
    println!("DWC-protected {}: {d_summary}", detected.name());
    println!("  (DWC failures are *detected* corruptions: the alarm output fires)");

    // 5. Price the protection.
    let cfg = MapperConfig::virtex_e();
    for n in [&circuit, &hardened, &detected] {
        let m = map_luts(n, &cfg);
        println!(
            "  {:<12} {:>5} LUTs  {:>4} FFs",
            n.name(),
            m.num_luts(),
            n.num_ffs()
        );
    }
}
