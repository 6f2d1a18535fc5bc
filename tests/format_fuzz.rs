//! Differential format fuzzing: random netlists through the full
//! emit × import matrix.
//!
//! A generator builds arbitrary valid netlists — every gate kind,
//! hostile identifiers that are illegal in at least one format, random
//! flip-flop feedback — and each one is emitted to every text format
//! the workspace can write (`snl`, `bench`, `blif`, structural
//! Verilog), then re-imported. Three properties must hold for every
//! `(netlist, format)` pair:
//!
//! 1. the content sniffer identifies the emitted source without any
//!    extension hint;
//! 2. the re-import is sequentially equivalent to the original
//!    ([`equiv_check`]);
//! 3. a fault-grading campaign over a shared testbench produces
//!    bit-identical per-fault verdicts and verdict digests — the round
//!    trip must preserve the fault space (flip-flop order and count),
//!    not just the output function.
//!
//! VHDL is import-only (no emitter), so it is exercised by the fixture
//! suites (`ingest_roundtrip`, registry) rather than this matrix.

use proptest::prelude::*;
use seugrade::prelude::*;
use seugrade_netlist::import::import_str;
use seugrade_netlist::{bench, blif, text, vlog};

/// Identifier stems drawn by the generator. Each is hostile to at
/// least one emitter (keywords, spaces, leading dots, the `esc_`
/// escape prefix itself) so every round trip exercises the shared
/// legalization pass; the numeric suffix added per port keeps them
/// unique within a netlist.
const NAME_STEMS: [&str; 8] = [
    "a", "module", "entity", "w x", ".y", "esc_q", "G#", "INPUT",
];

fn stem(rng: &mut SplitMix64) -> &'static str {
    NAME_STEMS[(rng.next_u64() % NAME_STEMS.len() as u64) as usize]
}

fn pick(rng: &mut SplitMix64, pool: &[SigId]) -> SigId {
    pool[(rng.next_u64() % pool.len() as u64) as usize]
}

/// Builds a random — but always valid — netlist from a seed.
///
/// The shape is deliberately unconstrained beyond validity: gates may
/// be dangling, outputs may observe inputs or constants directly,
/// several outputs may share one driver, and flip-flops may feed back
/// on themselves. Combinational loops cannot occur because gates only
/// ever reference already-created signals.
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let mut b = NetlistBuilder::new(format!("fuzz{seed}"));
    let mut pool: Vec<SigId> = Vec::new();

    let num_inputs = 1 + (rng.next_u64() % 6) as usize;
    for i in 0..num_inputs {
        pool.push(b.input(format!("{}{i}", stem(&mut rng))));
    }
    pool.push(b.constant(false));
    pool.push(b.constant(true));

    let ffs: Vec<SigId> = (0..1 + (rng.next_u64() % 5) as usize)
        .map(|_| b.dff(rng.next_bool()))
        .collect();
    pool.extend(&ffs);

    const KINDS: [GateKind; 9] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];
    for _ in 0..5 + (rng.next_u64() % 32) as usize {
        let kind = KINDS[(rng.next_u64() % KINDS.len() as u64) as usize];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2 + (rng.next_u64() % 3) as usize,
        };
        let pins: Vec<SigId> = (0..arity).map(|_| pick(&mut rng, &pool)).collect();
        pool.push(b.gate(kind, &pins));
    }

    for &ff in &ffs {
        let d = pick(&mut rng, &pool);
        b.connect_dff(ff, d).expect("generated flip-flop exists");
    }

    for o in 0..1 + (rng.next_u64() % 4) as usize {
        let sig = pick(&mut rng, &pool);
        b.output(format!("{}_o{o}", stem(&mut rng)), sig);
    }

    b.finish().expect("generated netlist is valid by construction")
}

/// The emit side of the matrix: every format the workspace can write.
fn emit_matrix(n: &Netlist) -> Vec<(SourceFormat, String)> {
    vec![
        (SourceFormat::Snl, text::emit(n)),
        (SourceFormat::Bench, bench::emit(n)),
        (SourceFormat::Blif, blif::emit(n)),
        (SourceFormat::Verilog, vlog::emit(n)),
    ]
}

/// The verdict digest of an exhaustive campaign over `tb`.
fn graded_digest(circuit: &Netlist, tb: &Testbench) -> (u64, Vec<FaultOutcome>) {
    let run = CampaignPlan::builder(circuit, tb).build().execute();
    let (faults, outcomes) = run
        .into_single()
        .expect("default campaign plan is single-fault");
    (
        StreamAccumulator::digest_of(faults.as_slice(), &outcomes),
        outcomes,
    )
}

/// Drives one netlist through the whole matrix and asserts the three
/// properties (sniff, equivalence, identical verdicts).
fn assert_round_trips(original: &Netlist, cycles: usize) {
    let tb = Testbench::random(original.num_inputs(), cycles, 0xF0F0 ^ cycles as u64);
    let (want_digest, want_outcomes) = graded_digest(original, &tb);
    for (format, src) in emit_matrix(original) {
        let label = format.label();
        assert_eq!(
            SourceFormat::sniff(&src),
            format,
            "emitted {label} source must sniff as {label}:\n{src}"
        );
        let back = import_str(&src, format)
            .unwrap_or_else(|e| panic!("re-import of emitted {label} failed: {e}\n{src}"))
            .netlist;
        assert_eq!(back.num_inputs(), original.num_inputs(), "{label} inputs");
        assert_eq!(back.num_outputs(), original.num_outputs(), "{label} outputs");
        assert_eq!(back.num_ffs(), original.num_ffs(), "{label} flip-flops");
        assert_eq!(
            back.ff_init_values(),
            original.ff_init_values(),
            "{label} power-on values"
        );
        if let Err(cex) = equiv_check(original, &back, cycles, 3) {
            panic!("{label} round trip broke equivalence: {cex}\n{src}");
        }
        let (digest, outcomes) = graded_digest(&back, &tb);
        assert_eq!(
            outcomes, want_outcomes,
            "{label} round trip changed a fault verdict\n{src}"
        );
        assert_eq!(digest, want_digest, "{label} verdict digest diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: any valid netlist survives emit → import
    /// through every format with identical behaviour and identical
    /// fault verdicts.
    #[test]
    fn random_netlists_round_trip_through_every_format(seed in 0u64..1_000_000) {
        let original = random_netlist(seed);
        assert_round_trips(&original, 24);
    }
}

#[test]
fn every_gate_kind_and_hostile_name_round_trips() {
    // A deterministic companion to the property: one netlist that is
    // guaranteed to contain every gate kind, both constants, a shared
    // output driver, an output observing an input, a self-feeding
    // flip-flop and a name that is hostile in every format.
    let mut b = NetlistBuilder::new("kinds");
    let a = b.input("module"); // Verilog keyword
    let c = b.input("entity"); // VHDL keyword
    let s = b.input(".w x#"); // illegal in snl, bench, blif and Verilog
    let k0 = b.constant(false);
    let k1 = b.constant(true);
    let ff0 = b.dff(true);
    let ff1 = b.dff(false);
    let g_and = b.gate(GateKind::And, &[a, c, s]);
    let g_or = b.gate(GateKind::Or, &[g_and, k0]);
    let g_nand = b.nand2(g_or, ff0);
    let g_nor = b.nor2(g_nand, k1);
    let g_xor = b.gate(GateKind::Xor, &[g_nor, a, c]);
    let g_xnor = b.xnor2(g_xor, s);
    let g_not = b.not(g_xnor);
    let g_buf = b.buf(g_not);
    let g_mux = b.mux(s, g_buf, ff1);
    b.connect_dff(ff0, ff0).expect("self feedback is valid");
    b.connect_dff(ff1, g_mux).expect("flip-flop exists");
    b.output("esc_out", g_mux); // collides with the escape prefix
    b.output("also mux", g_mux); // shared driver, hostile name
    b.output("module", a); // output named like a keyword, observes an input
    let original = b.finish().expect("hand-built netlist is valid");
    assert_round_trips(&original, 48);
}

#[test]
fn registry_circuits_round_trip_through_every_format() {
    // The acceptance requirement verbatim: every registry circuit —
    // including the HDL-imported ones — survives the full matrix with
    // bit-identical verdict digests. Large entries get fewer cycles so
    // the exhaustive FfIndex × cycle campaign stays test-sized.
    for name in registry::NAMES {
        let original = registry::build(name).expect("registry name");
        if original.num_ffs() > 4096 {
            // The s38417-class scale fixture shares its generator (and
            // thus its emitter coverage) with s5378g; running the
            // exhaustive matrix campaign on 10k flip-flops buys no new
            // format coverage for its debug-build cost.
            continue;
        }
        let cycles = if original.num_ffs() > 100 { 4 } else { 24 };
        assert_round_trips(&original, cycles);
    }
}
