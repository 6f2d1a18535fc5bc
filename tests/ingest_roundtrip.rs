//! Ingestion round-trip and equivalence suite.
//!
//! Proves the five on-disk formats (`docs/FORMATS.md`) agree with each
//! other and with the engine:
//!
//! - every bundled `.bench` fixture survives `.bench` → [`Netlist`] →
//!   SNL `emit` → `parse` with identical structure and behaviour;
//! - the hand-translated BLIF and Verilog twins of the fixtures are
//!   sim-equivalent to the `.bench` originals, and grade to
//!   bit-identical fault verdicts;
//! - every registry circuit survives emit → import through every
//!   emitted format (`.bench`, `.blif`, `.snl`, `.v`) with identical
//!   verdict digests;
//! - lying file extensions resolve to a clear diagnostic, and
//!   extensionless content is classified by the sniffer;
//! - malformed inputs fail with located errors in every frontend;
//! - `repro -- grade`'s campaign path (exhaustive fault space on an
//!   imported netlist) is thread-count invariant.

use seugrade::prelude::*;
use seugrade_netlist::text;

/// All bundled `.bench` fixtures, by name and embedded source.
const BENCH_FIXTURES: [(&str, &str); 3] = [
    ("s27", fixtures::S27_BENCH),
    ("s208a", fixtures::S208A_BENCH),
    ("s344a", fixtures::S344A_BENCH),
];

#[test]
fn bench_to_snl_roundtrip_preserves_structure_and_function() {
    for (name, src) in BENCH_FIXTURES {
        let imported = import::import_str(src, SourceFormat::Bench)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let n = imported.netlist;
        let snl = text::emit(&n);
        let n2 = text::parse(&snl).unwrap_or_else(|e| panic!("{name} re-parse: {e}"));

        assert_eq!(n2.num_cells(), n.num_cells(), "{name}");
        assert_eq!(n2.num_inputs(), n.num_inputs(), "{name}");
        assert_eq!(n2.num_outputs(), n.num_outputs(), "{name}");
        assert_eq!(n2.num_ffs(), n.num_ffs(), "{name}");
        assert_eq!(n2.ff_init_values(), n.ff_init_values(), "{name}");
        assert_eq!(n2.input_names(), n.input_names(), "{name}");
        for ((_, c1), (_, c2)) in n.iter_cells().zip(n2.iter_cells()) {
            assert_eq!(c1.kind(), c2.kind(), "{name}");
            assert_eq!(c1.pins(), c2.pins(), "{name}");
        }
        // Structure agreement is necessary; behaviour agreement closes
        // the loop.
        equiv_check(&n, &n2, 64, 8).unwrap_or_else(|cex| panic!("{name}: {cex}"));
    }
}

#[test]
fn blif_twin_is_equivalent_to_bench_original() {
    let bench = fixtures::s27();
    let blif = fixtures::s27_blif();
    assert_eq!(bench.num_inputs(), blif.num_inputs());
    assert_eq!(bench.num_outputs(), blif.num_outputs());
    assert_eq!(bench.num_ffs(), blif.num_ffs());
    assert_eq!(bench.ff_init_values(), blif.ff_init_values());
    assert_eq!(bench.input_names(), blif.input_names());
    equiv_check(&bench, &blif, 128, 32).expect("s27.bench and s27.blif must agree");
}

#[test]
fn blif_twin_grades_to_identical_verdicts() {
    // Stronger than output equivalence: both fixtures declare their
    // flip-flops in the same order, so the exhaustive `FfIndex × cycle`
    // fault space maps one-to-one and every single verdict must match.
    let bench = fixtures::s27();
    let blif = fixtures::s27_blif();
    let tb = Testbench::random(bench.num_inputs(), 80, 7);
    let run_b = CampaignPlan::builder(&bench, &tb).build().execute();
    let run_l = CampaignPlan::builder(&blif, &tb).build().execute();
    assert_eq!(run_b.outcomes(), run_l.outcomes());
    assert_eq!(run_b.summary(), run_l.summary());
    assert!(run_b.summary().total() > 0);
}

#[test]
fn imported_campaigns_are_thread_count_invariant() {
    // The acceptance check behind `repro -- grade`: per-class counts
    // (in fact, per-fault verdicts) identical at 1 and 4 threads.
    let imported =
        import::import_str(fixtures::S208A_BENCH, SourceFormat::Bench).expect("fixture");
    let circuit = imported.netlist;
    let tb = Testbench::random(circuit.num_inputs(), 48, 42);
    let baseline = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy::serial())
        .build()
        .execute();
    for threads in [1, 4] {
        let run = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy::with_threads(threads))
            .build()
            .execute();
        assert_eq!(run.outcomes(), baseline.outcomes(), "{threads} threads");
        assert_eq!(run.summary(), baseline.summary(), "{threads} threads");
    }
}

#[test]
fn every_emitter_round_trips_every_registry_circuit() {
    // The emitter-matrix acceptance test: `import → emit → import`
    // must be sim-equivalent for every registered circuit — including
    // the RTL-elaborated Viper, the imported HDL fixtures and the
    // s5378-class generator mesh — through every format the workspace
    // can write. (`tests/format_fuzz.rs` additionally proves the same
    // matrix preserves per-fault verdict digests.)
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let emitted = [
            (SourceFormat::Bench, seugrade_netlist::bench::emit(&circuit)),
            (SourceFormat::Blif, seugrade_netlist::blif::emit(&circuit)),
            (SourceFormat::Snl, text::emit(&circuit)),
            (SourceFormat::Verilog, seugrade_netlist::vlog::emit(&circuit)),
        ];
        for (format, src) in emitted {
            let label = format.label();
            let back = import::import_str(&src, format)
                .unwrap_or_else(|e| panic!("{name} re-import from {label}: {e}"))
                .netlist;
            assert_eq!(back.num_inputs(), circuit.num_inputs(), "{name} {label}");
            assert_eq!(back.num_outputs(), circuit.num_outputs(), "{name} {label}");
            assert_eq!(back.num_ffs(), circuit.num_ffs(), "{name} {label}");
            assert_eq!(back.ff_init_values(), circuit.ff_init_values(), "{name} {label}");
            let cycles = if circuit.num_ffs() > 1000 { 8 } else { 48 };
            equiv_check(&circuit, &back, cycles, 4)
                .unwrap_or_else(|cex| panic!("{name} via {label}: {cex}"));
        }
    }
}

#[test]
fn verilog_twins_grade_to_identical_verdicts() {
    // Same contract as the BLIF twin, for the Verilog frontend: the
    // hand-translated `.v` twins declare their flip-flops in the same
    // order as the `.bench` originals, so the exhaustive
    // `FfIndex × cycle` fault space maps one-to-one.
    for (bench, vlog) in [
        (fixtures::s27(), fixtures::s27v()),
        (fixtures::s208a(), fixtures::s208av()),
        (fixtures::s344a(), fixtures::s344av()),
    ] {
        let name = vlog.name().to_owned();
        equiv_check(&bench, &vlog, 96, 8).unwrap_or_else(|cex| panic!("{name}: {cex}"));
        let tb = Testbench::random(bench.num_inputs(), 48, 11);
        let run_b = CampaignPlan::builder(&bench, &tb).build().execute();
        let run_v = CampaignPlan::builder(&vlog, &tb).build().execute();
        assert_eq!(run_b.outcomes(), run_v.outcomes(), "{name}");
        assert_eq!(run_b.summary(), run_v.summary(), "{name}");
        assert!(run_b.summary().total() > 0, "{name}");
    }
}

#[test]
fn vhdl_fixture_grades_deterministically() {
    // The b14-interface-class VHDL fixture has no twin; its contract is
    // that the imported circuit grades end-to-end with a thread-count
    // invariant verdict digest (the same determinism the serve suite
    // pins for the bench fixtures).
    let circuit = fixtures::b14c();
    let tb = Testbench::random(circuit.num_inputs(), 16, 42);
    let serial = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy::serial())
        .build()
        .execute();
    assert_eq!(serial.summary().total(), 245 * 16, "exhaustive FfIndex × cycle space");
    let threaded = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy::with_threads(4))
        .build()
        .execute();
    assert_eq!(serial.outcomes(), threaded.outcomes());
    assert_eq!(serial.summary(), threaded.summary());
}

#[test]
fn fixture_registry_entries_participate_in_the_workspace() {
    for name in ["s27", "s208a", "s344a", "s27v", "s208av", "s344av", "b14c"] {
        let n = registry::build(name).expect("fixtures are registered");
        assert_eq!(n.name(), name);
        assert!(n.num_ffs() > 0);
        assert!(registry::NAMES.contains(&name));
    }
}

#[test]
fn import_path_detects_formats_from_extension() {
    let root = env!("CARGO_MANIFEST_DIR");
    for (file, format, cells, name) in [
        ("fixtures/s27.bench", SourceFormat::Bench, fixtures::s27().num_cells(), "s27"),
        ("fixtures/s27.blif", SourceFormat::Blif, fixtures::s27_blif().num_cells(), "s27"),
        ("fixtures/s27.v", SourceFormat::Verilog, fixtures::s27v().num_cells(), "s27"),
        ("fixtures/b14c.vhd", SourceFormat::Vhdl, fixtures::b14c().num_cells(), "b14c"),
    ] {
        let imported = import::import_path(format!("{root}/{file}"))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(imported.stats.format, format, "{file}");
        assert_eq!(imported.netlist.num_cells(), cells, "{file}");
        // No-name formats pick up the file stem; the HDL formats carry
        // their module/entity name — for the fixtures those coincide.
        assert_eq!(imported.netlist.name(), name, "{file}");
    }
}

#[test]
fn lying_extensions_fail_with_the_extensions_own_diagnostic() {
    // The extension is an explicit claim and it wins over content: a
    // `.bench` file holding Verilog goes to the bench frontend, whose
    // rejection names the file and a line — a clear diagnostic, never a
    // silent fallback to a different grammar.
    let dir = std::env::temp_dir().join(format!("seugrade-lying-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (file, content) in [
        ("lying.bench", fixtures::S27_VLOG),
        ("lying.v", fixtures::S27_BENCH),
        ("lying.vhd", fixtures::S27_BLIF),
        ("lying.blif", fixtures::B14C_VHDL),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, content).expect("write fixture");
        let err = import::import_path(&path)
            .expect_err("the extension's frontend must reject foreign content");
        match err {
            ImportError::Netlist { ref path, ref source } => {
                assert!(path.contains(file), "{file}: diagnostic names the file: {err}");
                assert!(source.line().is_some(), "{file}: diagnostic carries a line: {err}");
            }
            other => panic!("{file}: expected a netlist rejection, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extensionless_and_unknown_extension_content_is_sniffed() {
    // With no extension claim (or one the importer does not know), the
    // content sniffer classifies the source — each frontend's opening
    // idiom is distinctive enough to land in the right grammar.
    let dir = std::env::temp_dir().join(format!("seugrade-sniff-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (file, content, format, name) in [
        ("noext_verilog", fixtures::S27_VLOG, SourceFormat::Verilog, "s27"),
        ("noext_vhdl", fixtures::B14C_VHDL, SourceFormat::Vhdl, "b14c"),
        ("netlist.txt", fixtures::S27_BENCH, SourceFormat::Bench, "netlist"),
        ("netlist.dump", fixtures::S27_BLIF, SourceFormat::Blif, "s27"),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, content).expect("write fixture");
        let imported =
            import::import_path(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(imported.stats.format, format, "{file}");
        assert_eq!(imported.netlist.name(), name, "{file}");
        assert!(imported.netlist.num_ffs() > 0, "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_bench_inputs_fail_with_located_errors() {
    // Unknown gate function.
    let err = seugrade_netlist::bench::parse("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");

    // Undefined net.
    let err = seugrade_netlist::bench::parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, nope)\n").unwrap_err();
    assert!(matches!(err, NetlistError::UnknownNet { ref name, .. } if name == "nope"));
    assert_eq!(err.line(), Some(3));

    // Duplicate output declaration.
    let err = seugrade_netlist::bench::parse(
        "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n",
    )
    .unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");
    assert!(err.to_string().contains("declared twice"), "{err}");

    // Duplicate net definition.
    let err = seugrade_netlist::bench::parse(
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
    )
    .unwrap_err();
    assert_eq!(err.line(), Some(4), "{err}");
}

#[test]
fn malformed_blif_inputs_fail_with_located_errors() {
    // A cover mixing on-set and off-set rows (general SOP synthesis
    // handles every uniform cover, so polarity mixing is what remains
    // malformed).
    let err = seugrade_netlist::blif::parse(
        ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-0 1\n-11 0\n.end\n",
    )
    .unwrap_err();
    assert_eq!(err.line(), Some(4), "{err}");
    assert!(err.to_string().contains("mixes"), "{err}");

    // Undefined net behind a latch.
    let err =
        seugrade_netlist::blif::parse(".model m\n.outputs q\n.latch ghost q 0\n.end\n").unwrap_err();
    assert!(matches!(err, NetlistError::UnknownNet { ref name, .. } if name == "ghost"));

    // Unsupported directive.
    let err = seugrade_netlist::blif::parse(".model m\n.subckt child x=y\n.end\n").unwrap_err();
    assert_eq!(err.line(), Some(2), "{err}");
}

#[test]
fn general_sop_covers_are_sim_equivalent_to_gate_twins() {
    // The BLIF SOP-synthesis satellite: arbitrary two-level covers must
    // behave exactly like hand-built gate equivalents.
    for (label, blif, bench) in [
        (
            "a·c + ¬a·b",
            ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-1 1\n01- 1\n.end\n",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nna = NOT(a)\nt0 = AND(a, c)\n\
             t1 = AND(na, b)\ny = OR(t0, t1)\n",
        ),
        (
            "majority(a,b,c)",
            ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n11- 1\n1-1 1\n-11 1\n.end\n",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt0 = AND(a, b)\nt1 = AND(a, c)\n\
             t2 = AND(b, c)\ny = OR(t0, t1, t2)\n",
        ),
        (
            "off-set ¬(a·b + ¬a·¬b)",
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n00 0\n.end\n",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n",
        ),
        (
            "single-literal off-set",
            ".model m\n.inputs a\n.outputs y\n.names a y\n0 0\n.end\n",
            "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n",
        ),
    ] {
        let lhs = import::import_str(blif, SourceFormat::Blif)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .netlist;
        let rhs = import::import_str(bench, SourceFormat::Bench)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .netlist;
        equiv_check(&lhs, &rhs, 32, 8).unwrap_or_else(|cex| panic!("{label}: {cex}"));
    }
}

#[test]
fn snl_parse_errors_share_the_located_contract() {
    // The fixed satellite: SNL errors carry line numbers through the
    // same accessor the new frontends use.
    let err = text::parse("model m\ninput a\nbogus x\nend\n").unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");

    let err = text::parse("model m\ninput a\ngate and g a missing\noutput y g\nend\n").unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");

    // Duplicate output ports are now caught at the parse layer, with a
    // line, instead of surfacing as an unlocated builder error.
    let err =
        text::parse("model m\ninput a\noutput y a\noutput y a\nend\n").unwrap_err();
    assert_eq!(err.line(), Some(4), "{err}");

    // Whole-graph validation errors legitimately carry no line.
    let err = text::parse("model m\ninput a\ngate not g1 g2\ngate not g2 g1\noutput y g1\nend\n")
        .unwrap_err();
    assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    assert_eq!(err.line(), None);
}

#[test]
fn buffer_sweep_preserves_behaviour() {
    // BUF-heavy source: the default import sweeps the buffers; the
    // unswept netlist must stay sim-equivalent.
    let src = "\
INPUT(a)
OUTPUT(y)
b1 = BUF(a)
b2 = BUFF(b1)
q = DFF(b3)
b3 = BUF(nx)
nx = XOR(b2, q)
y = BUF(q)
";
    let swept = import::import_str(src, SourceFormat::Bench).expect("parses");
    let unswept = import::import_str_with(
        src,
        SourceFormat::Bench,
        ImportOptions { sweep_buffers: false },
    )
    .expect("parses");
    assert_eq!(swept.stats.swept_buffers, 4);
    assert_eq!(unswept.stats.swept_buffers, 0);
    assert_eq!(swept.netlist.num_gates() + 4, unswept.netlist.num_gates());
    equiv_check(&swept.netlist, &unswept.netlist, 64, 8).expect("sweep preserves function");
}
