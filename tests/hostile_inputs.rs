//! Hostile-input fuzzing: every grammar the workspace reads —
//! `seugrade-campaign-ckpt/v3` checkpoints, ISCAS `.bench`, structural
//! BLIF, structural Verilog, the VHDL subset, and the
//! `seugrade-serve/v1` wire protocol — must reject truncated or
//! mutated input with a structured, line-numbered error. Never a
//! panic, never partial state (a rejected checkpoint resumes nothing;
//! a rejected netlist builds nothing; a rejected request creates no
//! job and leaves the connection open).

use proptest::prelude::*;
use seugrade::prelude::*;
use seugrade_netlist::{bench, blif, vhdl, vlog};

/// One streamed-resumable invocation with the standard sink.
fn resumable(
    engine: &Engine,
    plan: &CampaignPlan<'_>,
    opts: &ResumeOptions,
) -> Result<ResumableRun<StreamAccumulator>, EngineError> {
    engine.run_streamed_resumable_with(plan, opts)
}

/// A real checkpoint, produced by an interrupted engine run rather than
/// hand-assembled, so the fuzz targets exactly what `grade --checkpoint`
/// writes.
fn golden_checkpoint_text() -> String {
    let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
    let tb = Testbench::random(circuit.num_inputs(), 24, 5);
    let plan = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build();
    let engine = Engine::new(&plan);
    // Tests run in parallel: every call needs its own file.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("seugrade-hostile-golden-{}-{call}.ckpt", std::process::id()));
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(3);
    opts.meta = vec![("target".to_owned(), "lfsr8".to_owned())];
    resumable(&engine, &plan, &opts).expect("seed checkpoint");
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    text
}

const BENCH_SRC: &str = "\
# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// A realistic, all-ASCII `submit` request line (inline netlist, every
/// optional knob present) — the richest single line the protocol
/// accepts, and therefore the best truncation/mutation target.
mod serve_proto {
    pub fn parse_roundtrip_line() -> String {
        let spec = r#"{"cmd":"submit","job":{"netlist":{"format":"bench","source":"INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"},"vectors":32,"seed":7,"sample":16,"trace_policy":"checkpoint:8","collapse":"on","threads":2,"round":4}}"#;
        // Guard: the exemplar itself must parse, or the fuzz is vacuous.
        seugrade_serve::proto::parse_request(spec).expect("exemplar request parses");
        spec.to_owned()
    }
}

const BLIF_SRC: &str = "\
.model toggle
.inputs en
.outputs q
.latch nq q re clk 0
.names en q nq
01 1
10 1
.end
";

/// A structural-Verilog source exercising every statement form the
/// subset accepts: block and line comments, an `(* init *)` attribute,
/// instance names, a wide gate, a mux and constant/alias assigns.
const VLOG_SRC: &str = "\
// toggle with trimmings
/* block
   comment */
module trimmings (en, ld, q, k);
  input en, ld;
  output q, k;
  wire s, ns, d, m;

  (* init = 1'b1 *) dff (s, d);
  not u0 (ns, s);
  mux (m, en, s, ns);
  and u1 (d, m, ld, en);
  assign q = s;
  assign k = 1'b0;
endmodule
";

/// A VHDL-subset source exercising the whole grammar: library/use
/// clauses, port defaults, signal declarations, operator chains with
/// parentheses, and a clocked process in the `rising_edge` form.
const VHDL_SRC: &str = "\
-- toggle with trimmings
library ieee;
use ieee.std_logic_1164.all;

entity trimmings is
  port (
    clk : in std_logic;
    en  : in std_logic;
    q   : out std_logic
  );
end entity;

architecture rtl of trimmings is
  signal s  : std_logic := '1';
  signal ns : std_logic;
  signal d  : std_logic;
begin
  ns <= not s;
  d  <= (en and ns) or (not en and s);
  process (clk)
  begin
    if rising_edge(clk) then
      s <= d;
    end if;
  end process;
  q <= s;
end architecture rtl;
";

/// Truncating anywhere must yield `Ok` (a shorter-but-valid prefix) or a
/// structured error — never a panic. For checkpoints specifically, *no*
/// strict prefix is valid: the `end` trailer is the last line.
fn lines_in(text: &str) -> usize {
    text.lines().count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_checkpoints_are_rejected_with_a_line_number(cut in 0usize..1000) {
        let full = golden_checkpoint_text();
        let cut = cut % full.len();
        let text = &full[..cut];
        let err = Checkpoint::parse(text).expect_err("no strict prefix is a valid checkpoint");
        let line = err.line().expect("parse-layer rejection carries a line");
        prop_assert!(line <= lines_in(text) + 1, "line {line} out of range: {err}");
    }

    #[test]
    fn mutated_checkpoints_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let full = golden_checkpoint_text();
        let pos = pos % full.len();
        let mut bytes = full.into_bytes();
        if bytes[pos] != byte {
            bytes[pos] = byte;
            let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
            // A single-byte change is always caught: either a tag/field
            // fails to parse, or the FNV trailer no longer matches the
            // body.
            let err = Checkpoint::parse(&text).expect_err("mutation must be detected");
            prop_assert!(err.line().is_some(), "rejection must name a line: {err}");
        }
    }

    #[test]
    fn deleted_checkpoint_lines_never_resume(drop_line in 0usize..13) {
        let full = golden_checkpoint_text();
        let total = lines_in(&full);
        let drop_line = drop_line % total;
        let text: String = full
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != drop_line)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        prop_assert!(Checkpoint::parse(&text).is_err(), "dropping line {drop_line} must be caught");
    }

    #[test]
    fn truncated_bench_sources_never_panic(cut in 0usize..1000) {
        let cut = cut % BENCH_SRC.len();
        match bench::parse(&BENCH_SRC[..cut]) {
            Ok(_) => {} // a shorter prefix can still be a valid netlist
            Err(e) => {
                if let Some(line) = e.line() {
                    prop_assert!(line <= lines_in(&BENCH_SRC[..cut]) + 1, "{e}");
                }
            }
        }
    }

    #[test]
    fn mutated_bench_sources_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let pos = pos % BENCH_SRC.len();
        let mut bytes = BENCH_SRC.as_bytes().to_vec();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        // Accept or reject — the only failure mode is a panic or a
        // line number past the end of the file.
        if let Err(e) = bench::parse(&text) {
            if let Some(line) = e.line() {
                prop_assert!(line <= lines_in(&text) + 1, "{e}");
            }
        }
    }

    #[test]
    fn truncated_blif_sources_never_panic(cut in 0usize..1000) {
        let cut = cut % BLIF_SRC.len();
        if let Err(e) = blif::parse(&BLIF_SRC[..cut]) {
            if let Some(line) = e.line() {
                prop_assert!(line <= lines_in(&BLIF_SRC[..cut]) + 1, "{e}");
            }
        }
    }

    #[test]
    fn mutated_blif_sources_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let pos = pos % BLIF_SRC.len();
        let mut bytes = BLIF_SRC.as_bytes().to_vec();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Err(e) = blif::parse(&text) {
            if let Some(line) = e.line() {
                prop_assert!(line <= lines_in(&text) + 1, "{e}");
            }
        }
    }

    #[test]
    fn truncated_verilog_sources_never_panic(cut in 0usize..1000) {
        let cut = cut % VLOG_SRC.len();
        if let Err(e) = vlog::parse(&VLOG_SRC[..cut]) {
            let line = e.line().expect("Verilog rejections carry a line");
            prop_assert!(line <= lines_in(&VLOG_SRC[..cut]) + 1, "{e}");
        }
    }

    #[test]
    fn mutated_verilog_sources_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let pos = pos % VLOG_SRC.len();
        let mut bytes = VLOG_SRC.as_bytes().to_vec();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Err(e) = vlog::parse(&text) {
            let line = e.line().expect("Verilog rejections carry a line");
            prop_assert!(line <= lines_in(&text) + 1, "{e}");
        }
    }

    #[test]
    fn garbage_verilog_sources_are_rejected_with_a_line(
        bytes in proptest::collection::vec(32u8..127, 0..200usize)
    ) {
        // Random printable bytes essentially never spell a module; when
        // they are rejected, the diagnostic must stay in range.
        let garbage = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Err(e) = vlog::parse(&garbage) {
            let line = e.line().expect("Verilog rejections carry a line");
            prop_assert!(line <= lines_in(&garbage) + 1, "{e}");
        }
    }

    #[test]
    fn truncated_vhdl_sources_never_panic(cut in 0usize..1000) {
        let cut = cut % VHDL_SRC.len();
        if let Err(e) = vhdl::parse(&VHDL_SRC[..cut]) {
            let line = e.line().expect("VHDL rejections carry a line");
            prop_assert!(line <= lines_in(&VHDL_SRC[..cut]) + 1, "{e}");
        }
    }

    #[test]
    fn mutated_vhdl_sources_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let pos = pos % VHDL_SRC.len();
        let mut bytes = VHDL_SRC.as_bytes().to_vec();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Err(e) = vhdl::parse(&text) {
            let line = e.line().expect("VHDL rejections carry a line");
            prop_assert!(line <= lines_in(&text) + 1, "{e}");
        }
    }

    #[test]
    fn garbage_vhdl_sources_are_rejected_with_a_line(
        bytes in proptest::collection::vec(32u8..127, 0..200usize)
    ) {
        let garbage = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if let Err(e) = vhdl::parse(&garbage) {
            let line = e.line().expect("VHDL rejections carry a line");
            prop_assert!(line <= lines_in(&garbage) + 1, "{e}");
        }
    }

    #[test]
    fn vhdl_paren_bombs_are_rejected_not_overflowed(depth in 30usize..400) {
        // Expression nesting past the parser's depth bound must be a
        // structured error, not a stack overflow. (The unit tests push
        // this to 100 000 parentheses; here the property is that the
        // boundary itself is exact.)
        let bomb = format!(
            "entity b is port (a : in bit; y : out bit); end entity;\n\
             architecture rtl of b is begin\n\
             y <= {}a{};\n\
             end architecture;\n",
            "(".repeat(depth),
            ")".repeat(depth),
        );
        let result = vhdl::parse(&bomb);
        if depth > 64 {
            let e = result.expect_err("nesting past the bound must be rejected");
            prop_assert!(e.to_string().contains("nested deeper"), "{e}");
            prop_assert_eq!(e.line(), Some(3));
        } else {
            prop_assert!(result.is_ok(), "nesting within the bound must parse");
        }
    }

    #[test]
    fn truncated_serve_requests_never_panic(cut in 0usize..1000) {
        // A real submit request, cut anywhere: every strict prefix is
        // invalid JSON (or a non-request), so it must parse to a
        // structured error — never a panic, never a request.
        let full = serve_proto::parse_roundtrip_line();
        let cut = cut % full.len();
        let e = seugrade_serve::proto::parse_request(&full[..cut])
            .expect_err("no strict prefix of a request object is valid JSON");
        prop_assert!(!e.msg.is_empty());
    }

    #[test]
    fn mutated_serve_requests_never_panic(pos in 0usize..1000, byte in 32u8..127) {
        let full = serve_proto::parse_roundtrip_line();
        let pos = pos % full.len();
        let mut bytes = full.into_bytes();
        bytes[pos] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        // Accept (a one-byte change can still be a valid request) or
        // reject with a message — the only failure mode is a panic.
        if let Err(e) = seugrade_serve::proto::parse_request(&text) {
            prop_assert!(!e.msg.is_empty());
        }
    }

    #[test]
    fn garbage_serve_requests_are_rejected_with_a_message(
        bytes in proptest::collection::vec(32u8..127, 0..200usize)
    ) {
        let garbage = String::from_utf8(bytes).expect("ASCII stays ASCII");
        // Random printable bytes essentially never spell a valid
        // request object; when they do parse, they must be a Request —
        // anything else is a structured error.
        if let Err(e) = seugrade_serve::proto::parse_request(&garbage) {
            prop_assert!(!e.msg.is_empty());
        }
    }

    #[test]
    fn deep_json_bombs_are_rejected_not_overflowed(depth in 30usize..400) {
        // Nesting past the parser's depth bound must be a structured
        // error, not a stack overflow.
        let bomb = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let result = seugrade_serve::json::parse(&bomb);
        if depth > 32 {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn random_garbage_is_never_a_checkpoint(
        bytes in proptest::collection::vec(32u8..127, 0..200usize)
    ) {
        // The schema line is mandatory; arbitrary printable text must be
        // rejected — random bytes cannot spell the schema header *and* a
        // matching checksum trailer.
        let garbage = String::from_utf8(bytes).expect("ASCII stays ASCII");
        if !garbage.starts_with(CKPT_SCHEMA) {
            prop_assert!(Checkpoint::parse(&garbage).is_err());
        }
    }
}

/// Deterministic (non-proptest) spot checks on the rejected-state
/// contract: a failed resume leaves no partial sink behind.
#[test]
fn rejected_checkpoint_resumes_nothing() {
    let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
    let tb = Testbench::random(circuit.num_inputs(), 24, 5);
    let plan = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build();
    let engine = Engine::new(&plan);
    let path = std::env::temp_dir()
        .join(format!("seugrade-hostile-reject-{}.ckpt", std::process::id()));
    std::fs::write(&path, "not a checkpoint at all\n").expect("write garbage");
    let err = resumable(&engine, &plan, &ResumeOptions::resume_from(&path))
        .expect_err("garbage must not resume");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, EngineError::Resume(ResumeError::Corrupt { line: 1, .. })), "{err}");
}

/// `resume` without a checkpoint path is a typed error from both the
/// one-shot entry point and a kept campaign state, not a panic.
#[test]
fn resume_without_a_checkpoint_path_is_a_typed_error() {
    let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
    let tb = Testbench::random(circuit.num_inputs(), 24, 5);
    let plan = sampled_plan(&circuit, &tb);
    let engine = Engine::new(&plan);
    let opts = ResumeOptions { resume: true, ..ResumeOptions::default() };
    let err = resumable(&engine, &plan, &opts).expect_err("nothing to resume from");
    assert_eq!(err, EngineError::ResumeWithoutCheckpoint);
    assert!(err.to_string().contains("checkpoint path"), "{err}");
    let err = CampaignState::<StreamAccumulator>::new(&engine, &plan, &opts)
        .expect_err("nothing to resume from");
    assert_eq!(err, EngineError::ResumeWithoutCheckpoint);
}

/// A `.bench` chain of `gates` one-input `gate`s behind one input, its
/// statements in file order or reversed (every gate then reads a net
/// defined further down).
fn chain(gate: &str, gates: usize, reversed: bool) -> String {
    let mut lines: Vec<String> =
        (1..=gates).map(|i| format!("n{i} = {gate}(n{})", i - 1)).collect();
    if reversed {
        lines.reverse();
    }
    format!("INPUT(n0)\nOUTPUT(n{gates})\n{}\n", lines.join("\n"))
}

/// Statement order changes neither the imported netlist nor, beyond a
/// constant factor, the import's cost: a reverse-ordered chain of 60k
/// gates (every gate a forward reference) imports to its
/// forward-ordered twin in well under the minutes a quadratic lowering
/// takes. A chain of buffers, which the buffer sweep removes whole,
/// must not be quadratic either.
#[test]
fn reverse_ordered_chain_imports_like_its_forward_twin() {
    let gates = 60_000;
    for gate in ["NOT", "BUFF"] {
        let forward = import::import_str(&chain(gate, gates, false), SourceFormat::Bench)
            .expect("forward chain imports");
        let start = std::time::Instant::now();
        let reversed = import::import_str(&chain(gate, gates, true), SourceFormat::Bench)
            .expect("reversed chain imports");
        let took = start.elapsed();
        assert_eq!(reversed.netlist, forward.netlist, "{gate}");
        assert_eq!(reversed.stats, forward.stats, "{gate}");
        assert!(took.as_secs() < 20, "reverse-ordered {gate} chain took {took:?}");
    }
}

/// The lfsr8 circuit, its test bench, and a per-test checkpoint path.
fn lfsr8_campaign(tag: &str) -> (Netlist, Testbench, std::path::PathBuf) {
    let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
    let tb = Testbench::random(circuit.num_inputs(), 24, 5);
    let path = std::env::temp_dir()
        .join(format!("seugrade-hostile-{tag}-{}.ckpt", std::process::id()));
    (circuit, tb, path)
}

fn sampled_plan<'a>(circuit: &'a Netlist, tb: &'a Testbench) -> CampaignPlan<'a> {
    CampaignPlan::builder(circuit, tb)
        .sampled(100, 3)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build()
}

/// FNV-1a 64, the checkpoint trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the checkpoint at `path` under schema line `schema`, with a
/// matching checksum: what an older release would have written for the
/// same campaign.
fn relabel_schema(path: &std::path::Path, schema: &str) {
    let text = std::fs::read_to_string(path).expect("checkpoint written");
    let body: Vec<&str> = text.lines().collect();
    let mut old: Vec<String> = body[..body.len() - 1].iter().map(|l| (*l).to_owned()).collect();
    old[0] = schema.to_owned();
    let old_body = old.join("\n");
    let old_text = format!("{old_body}\nend {:016x}\n", fnv1a(old_body.as_bytes()));
    std::fs::write(path, old_text).expect("write old checkpoint");
}

/// A checkpoint written under the old one-cycle-per-chunk layout is a
/// typed error, even with an intact checksum: its cursor would name
/// different faults under today's packed chunks.
#[test]
fn old_layout_checkpoint_is_rejected() {
    let (circuit, tb, path) = lfsr8_campaign("v1");
    let plan = sampled_plan(&circuit, &tb);
    let engine = Engine::new(&plan);
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(1);
    resumable(&engine, &plan, &opts).expect("seed checkpoint");
    relabel_schema(&path, "seugrade-campaign-ckpt/v1");
    let err = resumable(&engine, &plan, &ResumeOptions::resume_from(&path))
        .expect_err("an old-layout checkpoint must not resume");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, EngineError::Resume(ResumeError::Corrupt { line: 1, .. })), "{err}");
    assert!(err.to_string().contains("unrecognized schema"), "{err}");
}

/// A `v2` checkpoint counted its cursor over an exhaustive walk that
/// went up the cycles; today's walk goes down, so the same cursor names
/// other faults. Resuming one is a typed line-1 error, never a panic
/// and never a silent resume in the wrong order.
#[test]
fn ascending_walk_checkpoint_is_rejected_by_the_engine() {
    let (circuit, tb, path) = lfsr8_campaign("v2");
    let plan = CampaignPlan::builder(&circuit, &tb)
        .policy(ShardPolicy { threads: 1, serial_below: 0 })
        .build();
    let engine = Engine::new(&plan);
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(3);
    resumable(&engine, &plan, &opts).expect("seed checkpoint");
    relabel_schema(&path, "seugrade-campaign-ckpt/v2");
    let err = resumable(&engine, &plan, &ResumeOptions::resume_from(&path))
        .expect_err("a v2 checkpoint must not resume");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, EngineError::Resume(ResumeError::Corrupt { line: 1, .. })), "{err}");
    assert!(err.to_string().contains("older release's chunk order"), "{err}");
}

/// A daemon that restarts over a spooled job whose checkpoint is `v2`
/// fails that job with the typed resume error and keeps serving.
#[test]
fn ascending_walk_checkpoint_fails_its_spooled_job_on_daemon_start() {
    use seugrade_serve::json::Value;
    use seugrade_serve::{build_plan, Client, Job, JobSpec, Server, ServerConfig, Spool};

    let spool_dir =
        std::env::temp_dir().join(format!("seugrade-hostile-v2-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let spool = Spool::open(&spool_dir).expect("open spool");
    let mut spec = JobSpec::registry("s27");
    spec.vectors = 24;
    spool.write_spec("j1", &spec).expect("spool a job");
    // A checkpoint of the job's own campaign, one chunk in, relabelled.
    let job = Job::build("j1".to_owned(), spec).expect("job builds");
    let plan = build_plan(&job.spec, &job.circuit, &job.testbench);
    let mut opts = ResumeOptions::checkpoint_to(spool.ckpt_path("j1"));
    opts.limit = Some(1);
    resumable(&Engine::new(&plan), &plan, &opts).expect("seed checkpoint");
    relabel_schema(&spool.ckpt_path("j1"), "seugrade-campaign-ckpt/v2");

    let config = ServerConfig { addr: "127.0.0.1:0".to_owned(), workers: 1, spool: spool_dir };
    let server = Server::bind(&config).expect("the daemon starts over a v2 checkpoint");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let snapshot =
        client.wait("j1", std::time::Duration::from_secs(60)).expect("the job ends");
    assert_eq!(snapshot.get("state").and_then(Value::as_str), Some("failed"), "{snapshot:?}");
    let error = snapshot.get("error").and_then(Value::as_str).expect("an error message");
    assert!(error.contains("corrupt checkpoint at line 1"), "{error}");
    assert!(error.contains("older release's chunk order"), "{error}");
    let v = client.request_line(r#"{"cmd":"ping"}"#).expect("the daemon keeps serving");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    drop(server);
    let _ = std::fs::remove_dir_all(&config.spool);
}

/// A cursor that does not sit on a chunk boundary of the plan — here
/// the one the old layout would have written after one chunk — is a
/// mismatch, although the fingerprint and the chunk count agree.
#[test]
fn cursor_off_the_chunk_boundary_is_a_mismatch() {
    let (circuit, tb, path) = lfsr8_campaign("cursor");
    let plan = sampled_plan(&circuit, &tb);
    let engine = Engine::new(&plan);
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(1);
    resumable(&engine, &plan, &opts).expect("seed checkpoint");
    let ck = Checkpoint::load(&path).expect("checkpoint loads");
    let sample = FaultList::sampled(circuit.num_ffs(), tb.num_cycles(), 100, 3);
    let first_cycle = sample.iter().map(|f| f.cycle).min().expect("non-empty sample");
    let old_cursor = sample.iter().filter(|f| f.cycle == first_cycle).count();
    assert_ne!(old_cursor, ck.faults_done(), "the layouts must cut differently");
    let sink: StreamAccumulator = ck.restore_sink().expect("sink restores");
    Checkpoint::new(ck.fingerprint().clone(), ck.chunks_done(), old_cursor, ck.meta().to_vec(), &sink)
        .write_atomic(&path)
        .expect("rewrite checkpoint");
    let err = resumable(&engine, &plan, &ResumeOptions::resume_from(&path))
        .expect_err("an off-boundary cursor must not resume");
    std::fs::remove_file(&path).ok();
    match err {
        EngineError::Resume(ResumeError::Mismatch { field, expected, found }) => {
            assert_eq!(field, "fault cursor");
            assert_eq!(expected, old_cursor.to_string());
            assert_eq!(found, ck.faults_done().to_string());
        }
        other => panic!("expected a fault-cursor mismatch, got {other}"),
    }
}

/// Live-daemon leg of the protocol contract: garbage lines on a real
/// connection get structured, line-numbered error responses; the
/// connection stays open and a subsequent valid request still works.
#[test]
fn hostile_lines_on_a_live_connection_get_line_numbered_errors() {
    use seugrade_serve::json::Value;
    use seugrade_serve::{Client, ClientError, Server, ServerConfig};

    let spool = std::env::temp_dir()
        .join(format!("seugrade-hostile-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        spool: spool.clone(),
    };
    let server = Server::bind(&config).expect("bind daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Three hostile lines, then a valid one — all on the same connection.
    for (line_no, garbage) in
        [(1, "this is not json"), (2, r#"{"cmd":"warp"}"#), (3, r#"[1,2,3]"#)]
    {
        match client.request_line(garbage) {
            Err(ClientError::Server { line, msg }) => {
                assert_eq!(line, line_no, "server must number request lines 1-based");
                assert!(!msg.is_empty());
            }
            other => panic!("garbage line {line_no} must be a structured error, got {other:?}"),
        }
    }
    let v = client.request_line(r#"{"cmd":"ping"}"#).expect("connection survives garbage");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));

    // A hostile submit is an error, not a job.
    let err = client
        .request_line(r#"{"cmd":"submit","job":{"circuit":"no-such-circuit"}}"#)
        .expect_err("unknown circuit must be rejected");
    assert!(matches!(err, ClientError::Server { line: 5, .. }), "{err:?}");
    assert!(client.list().expect("list").is_empty(), "rejected submits must not create jobs");

    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn hdl_fuzz_exemplars_parse() {
    // Guard: the sources the HDL batteries mutate must themselves be
    // valid (and behaviourally identical), or the fuzzing is vacuous.
    let v = vlog::parse(VLOG_SRC).expect("Verilog exemplar parses");
    let h = vhdl::parse(VHDL_SRC).expect("VHDL exemplar parses");
    assert_eq!(v.num_ffs(), 1);
    assert_eq!(h.num_ffs(), 1);
    assert_eq!(h.ff_init_values(), vec![true]);
}

#[test]
fn unterminated_verilog_block_comment_is_a_structured_error() {
    // A `/*` that swallows the rest of the file — the classic
    // truncation hazard for the Verilog lexer — must be rejected at
    // the line the comment opened on.
    let src = "module m (a, y);\n  input a;\n  output y;\n  /* swallowed\n  buf (y, a);\n";
    let e = vlog::parse(src).expect_err("unterminated comment");
    assert_eq!(e.line(), Some(4), "{e}");
    assert!(e.to_string().contains("comment"), "{e}");
}

#[test]
fn missing_checkpoint_file_is_an_io_error_not_a_panic() {
    let err = Checkpoint::load(std::path::Path::new("/nonexistent/dir/nope.ckpt"))
        .expect_err("missing file");
    assert!(matches!(err, ResumeError::Io { .. }), "{err}");
    assert!(err.line().is_none());
}

/// Rewrites the `trace-policy` line of the checkpoint at `path` to
/// `label`, with a matching checksum trailer.
fn relabel_trace_policy(path: &std::path::Path, label: &str) {
    let text = std::fs::read_to_string(path).expect("checkpoint written");
    let body: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with("end "))
        .map(|l| match l.strip_prefix("trace-policy ") {
            Some(_) => format!("trace-policy {label}"),
            None => l.to_owned(),
        })
        .collect();
    let body = body.join("\n");
    let text = format!("{body}\nend {:016x}\n", fnv1a(body.as_bytes()));
    std::fs::write(path, text).expect("rewrite checkpoint");
}

/// A checkpoint written under the retired `dense` trace policy parses
/// (its checksum is intact) but names a policy no plan has: resuming it
/// is a `trace policy` mismatch, and nothing is graded.
#[test]
fn dense_trace_policy_checkpoint_is_a_mismatch() {
    let (circuit, tb, path) = lfsr8_campaign("dense");
    let plan = sampled_plan(&circuit, &tb);
    let engine = Engine::new(&plan);
    let mut opts = ResumeOptions::checkpoint_to(&path);
    opts.limit = Some(1);
    resumable(&engine, &plan, &opts).expect("seed checkpoint");
    relabel_trace_policy(&path, "dense");
    let ck = Checkpoint::load(&path).expect("a relabelled checkpoint still parses");
    assert_eq!(ck.fingerprint().trace_policy, "dense");
    let err = resumable(&engine, &plan, &ResumeOptions::resume_from(&path))
        .expect_err("a dense checkpoint must not resume");
    std::fs::remove_file(&path).ok();
    match err {
        EngineError::Resume(ResumeError::Mismatch { field, expected, found }) => {
            assert_eq!(field, "trace policy");
            assert_eq!((expected.as_str(), found.as_str()), ("dense", "checkpoint:64"));
        }
        other => panic!("expected a trace-policy mismatch, got {other}"),
    }
}

/// The retired `dense` trace policy is a structured rejection on the
/// wire, and a spooled `job.json` that names it (written by an older
/// daemon) is skipped at restart while the daemon still starts.
#[test]
fn dense_trace_policy_is_rejected_on_the_wire_and_in_the_spool() {
    use seugrade_serve::json::{self, Value};
    use seugrade_serve::{Client, ClientError, JobSpec, Server, ServerConfig, Spool};

    let spool_dir = std::env::temp_dir()
        .join(format!("seugrade-hostile-dense-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let spool = Spool::open(&spool_dir).expect("open spool");
    spool.write_spec("j1", &JobSpec::registry("s27")).expect("spool a job");
    let spec_path = spool.spec_path("j1");
    let text = std::fs::read_to_string(&spec_path).expect("job.json written");
    let old = text.replace(r#""trace_policy":"checkpoint:64""#, r#""trace_policy":"dense""#);
    assert_ne!(old, text, "the default spec names its trace policy");
    std::fs::write(&spec_path, &old).expect("rewrite job.json");
    // The message `Spool::scan` prints when it skips the job.
    let doc = json::parse(old.trim_end()).expect("job.json is JSON");
    let e = JobSpec::from_value(doc.get("job").expect("job object")).expect_err("dense spec");
    assert!(e.to_string().contains("expects checkpoint:<K>"), "{e}");
    assert!(spool.scan().expect("scan").is_empty(), "the dense job is skipped");

    let config = ServerConfig { addr: "127.0.0.1:0".to_owned(), workers: 1, spool: spool_dir };
    let server = Server::bind(&config).expect("the daemon starts over a dense spool entry");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client
        .request_line(r#"{"cmd":"submit","job":{"circuit":"s27","trace_policy":"dense"}}"#)
        .expect_err("a dense submit must be rejected");
    match err {
        ClientError::Server { line, msg } => {
            assert_eq!(line, 1);
            assert!(msg.contains("expects checkpoint:<K>"), "{msg}");
        }
        other => panic!("expected a structured rejection, got {other:?}"),
    }
    let v = client.request_line(r#"{"cmd":"ping"}"#).expect("connection survives");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert!(client.list().expect("list").is_empty(), "no job was created or resumed");
    drop(server);
    let _ = std::fs::remove_dir_all(&config.spool);
}

/// Per-job resource limits hold where a spec enters the daemon: a count
/// over its limit is a parse error naming the field, and a fault space
/// or test bench over its limit is a structured submit error, raised
/// before the test bench is allocated. No job is created, and no
/// over-limit job is ever run. The largest specs the test suites and
/// benchmarks use stay within the limits.
#[test]
fn over_limit_specs_are_rejected_at_parse_and_submit() {
    use seugrade_serve::proto::{
        parse_request, MAX_FAULT_SPACE, MAX_ROUND, MAX_SAMPLE, MAX_STIMULUS_BITS, MAX_THREADS,
        MAX_VECTORS,
    };
    use seugrade_serve::{Client, ClientError, Job, JobSpec, Server, ServerConfig};

    let submit = |field: &str, value: usize| {
        format!(r#"{{"cmd":"submit","job":{{"circuit":"s27","{field}":{value}}}}}"#)
    };
    for (field, max) in [
        ("vectors", MAX_VECTORS),
        ("threads", MAX_THREADS),
        ("round", MAX_ROUND),
        ("sample", MAX_SAMPLE),
    ] {
        parse_request(&submit(field, max)).unwrap_or_else(|e| panic!("{field} at its limit: {e}"));
        for over in [max + 1, 1 << 40] {
            let err = parse_request(&submit(field, over)).expect_err("over the limit");
            assert!(err.msg.contains(&format!("job.{field}")), "{err}");
            assert!(err.msg.contains("limit"), "{err}");
        }
    }
    // A spec built in process meets the same limits in `Job::build`.
    let mut spec = JobSpec::registry("s27");
    spec.threads = 1 << 20;
    let err = Job::build("j1".into(), spec).expect_err("hostile thread count");
    assert!(err.contains("job.threads"), "{err}");

    // Limits that need the circuit: 10,240 flip-flops x 65,536 vectors,
    // and 400 inputs x 65,536 vectors of stimuli.
    let mut huge = JobSpec::registry("s38417g");
    huge.vectors = MAX_VECTORS;
    assert!(10_240 * MAX_VECTORS > MAX_FAULT_SPACE);
    let err = Job::build("j2".into(), huge.clone()).expect_err("fault space");
    assert!(err.contains("fault space") && err.contains("limit"), "{err}");
    let mut wide = String::new();
    for i in 0..400 {
        wide.push_str(&format!("INPUT(i{i})\n"));
    }
    wide.push_str("OUTPUT(q)\nq = DFF(i0)\n");
    assert!(400 * MAX_VECTORS > MAX_STIMULUS_BITS);
    let mut stimuli = JobSpec::registry("ignored");
    stimuli.circuit = CircuitSource::Inline { format: SourceFormat::Bench, source: wide };
    stimuli.vectors = MAX_VECTORS;
    let err = Job::build("j3".into(), stimuli).expect_err("test bench");
    assert!(err.contains("test bench") && err.contains("limit"), "{err}");

    // The largest specs in use are accepted (built, not run).
    let mut big = JobSpec::registry("s38417g");
    big.vectors = 1024;
    big.threads = 16;
    Job::build("j4".into(), big).expect("s38417g x 1024 stays within the limits");

    // Over the wire: a structured rejection, the connection stays open,
    // no job exists.
    let spool = std::env::temp_dir().join(format!("seugrade-hostile-limits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let config = ServerConfig { addr: "127.0.0.1:0".to_owned(), workers: 1, spool };
    let server = Server::bind(&config).expect("bind daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.request_line(&submit("threads", 1_000_000)) {
        Err(ClientError::Server { line: 1, msg }) => assert!(msg.contains("job.threads"), "{msg}"),
        other => panic!("expected a structured rejection, got {other:?}"),
    }
    match client.submit(&huge) {
        Err(ClientError::Server { line: 2, msg }) => assert!(msg.contains("fault space"), "{msg}"),
        other => panic!("expected a structured rejection, got {other:?}"),
    }
    assert!(client.list().expect("list").is_empty(), "rejected submits create no job");
    drop(server);
    let _ = std::fs::remove_dir_all(&config.spool);
}

#[test]
fn over_limit_sources_and_circuits_are_rejected_at_parse_and_submit() {
    use seugrade_serve::proto::{parse_request, MAX_CELLS, MAX_SOURCE_BYTES};
    use seugrade_serve::{Client, ClientError, Job, Server, ServerConfig};

    // s27 padded with comment lines to `len` bytes.
    let padded = |len: usize| {
        let mut source = std::fs::read_to_string("fixtures/s27.bench").expect("fixture");
        while source.len() < len {
            let pad = (len - source.len()).min(1000);
            source.push_str(&format!("#{}\n", "x".repeat(pad.saturating_sub(2))));
        }
        source.truncate(len);
        source
    };
    let submit = |source: &str| {
        format!(
            r#"{{"cmd":"submit","job":{{"netlist":{{"format":"bench","source":"{}"}}}}}}"#,
            source.replace('\n', "\\n")
        )
    };
    parse_request(&submit(&padded(MAX_SOURCE_BYTES))).expect("a source at its limit parses");
    let over = padded(MAX_SOURCE_BYTES + 1);
    let err = parse_request(&submit(&over)).expect_err("over the source limit");
    assert!(err.msg.contains("job.netlist.source") && err.msg.contains("limit"), "{err}");
    let mut spec = JobSpec::registry("ignored");
    spec.circuit = CircuitSource::Inline { format: SourceFormat::Bench, source: over.clone() };
    let err = Job::build("j1".into(), spec.clone()).expect_err("over the source limit");
    assert!(err.contains("job.netlist.source"), "{err}");

    // A source under its limit whose circuit is over the cell limit:
    // the cells are counted after the import, before anything is built
    // from the circuit.
    let mut wide = String::from("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
    for i in 0..MAX_CELLS {
        wide.push_str(&format!("g{i:x}=NOT(a)\n"));
    }
    assert!(wide.len() <= MAX_SOURCE_BYTES, "{} bytes", wide.len());
    let mut cells = JobSpec::registry("ignored");
    cells.circuit = CircuitSource::Inline { format: SourceFormat::Bench, source: wide };
    let err = Job::build("j2".into(), cells).expect_err("over the cell limit");
    assert!(err.contains("cells") && err.contains("limit"), "{err}");

    // Over the wire: a structured rejection, the connection stays open,
    // no job exists.
    let spool =
        std::env::temp_dir().join(format!("seugrade-hostile-source-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let config = ServerConfig { addr: "127.0.0.1:0".to_owned(), workers: 1, spool };
    let server = Server::bind(&config).expect("bind daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.submit(&spec) {
        Err(ClientError::Server { line: 1, msg }) => {
            assert!(msg.contains("job.netlist.source"), "{msg}");
        }
        other => panic!("expected a structured rejection, got {other:?}"),
    }
    assert!(client.list().expect("list").is_empty(), "rejected submits create no job");
    drop(server);
    let _ = std::fs::remove_dir_all(&config.spool);
}
