//! Persistent campaign checkpoints: the `seugrade-campaign-ckpt/v3`
//! format, fingerprint verification, and the [`PersistentSink`] contract.
//!
//! A multi-hour exhaustive campaign dies to a single SIGINT unless its
//! progress survives the process. This module gives every streamed
//! campaign a durable cursor:
//!
//! - [`Checkpoint`] is a versioned, dependency-free **line-delimited**
//!   snapshot of a running campaign: the plan's [`Fingerprint`] (circuit
//!   digest, test-bench digest, fault source, trace policy, techniques,
//!   chunk space), a thread-count-independent chunk cursor, caller
//!   metadata, and the folded sink state. Files are written atomically
//!   (sibling temp file + `rename`) and end in a checksum trailer, so a
//!   truncated or bit-flipped file is detected on load — every load
//!   failure is a line-numbered [`ResumeError`], never a panic.
//! - [`Fingerprint`] pins a checkpoint to *one* campaign. Resuming
//!   against a different circuit, test bench, fault source, trace policy
//!   or technique set fails with a field-precise
//!   [`ResumeError::Mismatch`] instead of silently merging incompatible
//!   verdict sets.
//! - [`PersistentSink`] extends [`VerdictSink`] with save/restore —
//!   the folded accumulator itself is checkpointed, so a resume never
//!   re-grades a completed chunk.
//!
//! The cursor works because the pool completes chunks as an **exact
//! queue prefix** (cooperative cancellation drains claimed chunks — see
//! [`CancelToken`]), and chunk boundaries are pure
//! arithmetic on the cycle-major chunk plan — independent of thread
//! count. Interrupted-and-resumed campaigns therefore reproduce the
//! uninterrupted verdict digest bit-for-bit, at any thread count and
//! trace policy; `tests/resume_determinism.rs` enforces this.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use seugrade_faultsim::{Fault, FaultClass};
use seugrade_netlist::{CellKind, Netlist};
use seugrade_sim::Testbench;

use crate::cancel::CancelToken;
use crate::plan::{CampaignPlan, FaultSource, Technique};
use crate::progress::ProgressHook;
use crate::stream::{StreamAccumulator, VerdictSink};

/// First line of every checkpoint file; bump the suffix on breaking
/// format changes. A change of chunk layout or order is one: the cursor
/// counts chunks, so an old file's cursor would land on different
/// faults. `v2` packs sampled and explicit lists into full chunks across
/// injection cycles (`v1` cut them per cycle); `v3` walks the exhaustive
/// space from the last cycle down (`v2` walked it upwards). A file of an
/// older version is a line-1 [`ResumeError::Corrupt`].
pub const CKPT_SCHEMA: &str = "seugrade-campaign-ckpt/v3";

/// Default chunk interval between checkpoint writes.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

// --------------------------------------------------------------------
// Stable hashing (no `RandomState` — digests must survive processes).

/// FNV-1a 64 over explicit field encodings. Used for the circuit,
/// test-bench and file checksums; stability across runs and platforms is
/// the entire point, so `std::hash` (randomly seeded) is out.
#[derive(Clone, Copy, Debug)]
struct Hasher64(u64);

impl Hasher64 {
    fn new() -> Self {
        Hasher64(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Stable structural digest of a netlist: name, every cell's kind and
/// pins, input names, outputs, flip-flop power-on values. Two circuits
/// share a digest only if they are the same design — dimensions alone
/// (which collide between e.g. a counter and an LFSR) are not trusted.
fn circuit_digest(c: &Netlist) -> u64 {
    let mut h = Hasher64::new();
    h.str(c.name());
    h.usize(c.num_cells());
    h.usize(c.num_inputs());
    h.usize(c.num_ffs());
    for (sig, cell) in c.iter_cells() {
        h.usize(sig.index());
        match cell.kind() {
            CellKind::Input => h.u64(1),
            CellKind::Const(b) => {
                h.u64(2);
                h.u64(u64::from(b));
            }
            CellKind::Gate(g) => {
                h.u64(3);
                h.str(g.mnemonic());
            }
            CellKind::Dff { init } => {
                h.u64(4);
                h.u64(u64::from(init));
            }
        }
        h.usize(cell.pins().len());
        for p in cell.pins() {
            h.usize(p.index());
        }
    }
    for name in c.input_names() {
        h.str(name);
    }
    for (name, sig) in c.outputs() {
        h.str(name);
        h.usize(sig.index());
    }
    h.finish()
}

/// Stable digest of a test bench's stimuli (dimensions + every bit).
fn bench_digest(tb: &Testbench) -> u64 {
    let mut h = Hasher64::new();
    h.usize(tb.num_inputs());
    h.usize(tb.num_cycles());
    for vector in tb.iter() {
        let mut word = 0u64;
        let mut n = 0u32;
        for &bit in vector {
            word = (word << 1) | u64::from(bit);
            n += 1;
            if n == 64 {
                h.u64(word);
                (word, n) = (0, 0);
            }
        }
        h.u64(word);
        h.u64(u64::from(n));
    }
    h.finish()
}

/// Stable digest of an explicit fault list (for the `list:` source
/// label — two different lists of equal length must not be resumable
/// into each other).
fn fault_list_digest(faults: &[Fault]) -> u64 {
    let mut h = Hasher64::new();
    h.usize(faults.len());
    for f in faults {
        h.usize(f.ff.index());
        h.u64(u64::from(f.cycle));
    }
    h.finish()
}

/// Checksum for the file trailer: FNV-1a over every line before `end`,
/// joined with `\n` (the exact rendered bytes).
fn body_checksum(body: &str) -> u64 {
    let mut h = Hasher64::new();
    h.bytes(body.as_bytes());
    h.finish()
}

fn technique_token(t: Technique) -> &'static str {
    match t {
        Technique::MaskScan => "mask-scan",
        Technique::StateScan => "state-scan",
        Technique::TimeMux => "time-mux",
    }
}

fn technique_from_token(s: &str) -> Option<Technique> {
    Technique::ALL.into_iter().find(|&t| technique_token(t) == s)
}

/// Canonical one-token label of a fault source, as stored on the
/// checkpoint's `source` line.
fn source_label(source: &FaultSource) -> String {
    match source {
        FaultSource::Exhaustive => "exhaustive".to_owned(),
        FaultSource::Sampled { count, seed } => format!("sampled:{count}:{seed}"),
        FaultSource::List(list) => {
            format!("list:{}:{:016x}", list.len(), fault_list_digest(list.as_slice()))
        }
        // The streamed paths reject MBU campaigns before fingerprinting;
        // the label exists only so `Fingerprint::of` is total.
        FaultSource::Multi(list) => format!("multi:{}", list.len()),
    }
}

// --------------------------------------------------------------------
// Errors

/// Why a checkpoint could not be loaded, validated, or written.
///
/// The `Display` form is a single lower-case sentence; corrupt files
/// carry the 1-based line number of the first offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResumeError {
    /// The checkpoint file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        msg: String,
    },
    /// The file is not a well-formed `seugrade-campaign-ckpt/v3`
    /// document: wrong schema line, truncated, checksum mismatch, or a
    /// malformed field.
    Corrupt {
        /// 1-based line number of the first offending line (for a
        /// truncated file, the line the trailer should have been on).
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The file is well-formed but describes a *different* campaign.
    Mismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
        /// The checkpoint's value.
        expected: String,
        /// The current campaign's value.
        found: String,
    },
}

impl ResumeError {
    /// The offending line for [`Corrupt`](Self::Corrupt) errors.
    #[must_use]
    pub fn line(&self) -> Option<usize> {
        match self {
            ResumeError::Corrupt { line, .. } => Some(*line),
            _ => None,
        }
    }
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io { path, msg } => {
                write!(f, "cannot access checkpoint {path}: {msg}")
            }
            ResumeError::Corrupt { line, msg } => {
                write!(f, "corrupt checkpoint at line {line}: {msg}")
            }
            ResumeError::Mismatch { field, expected, found } => write!(
                f,
                "checkpoint does not match this campaign: {field} is {expected} \
                 in the checkpoint but {found} in the plan"
            ),
        }
    }
}

impl Error for ResumeError {}

// --------------------------------------------------------------------
// Fingerprint

/// Everything that must be identical for a checkpoint to be resumable
/// into a campaign: the circuit (by structural digest, not just
/// dimensions), the test bench (by stimuli digest), the fault source,
/// trace policy, technique set, and the chunk space they induce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Circuit name.
    pub circuit_name: String,
    /// Circuit flip-flop count.
    pub num_ffs: usize,
    /// Circuit cell count.
    pub num_cells: usize,
    /// Structural circuit digest.
    pub circuit_digest: u64,
    /// Test-bench cycle count.
    pub num_cycles: usize,
    /// Test-bench input width.
    pub num_inputs: usize,
    /// Stimuli digest.
    pub bench_digest: u64,
    /// Fault-source label (`exhaustive`, `sampled:<count>:<seed>`,
    /// `list:<len>:<digest>`).
    pub source: String,
    /// Trace-policy label (`checkpoint:<k>`).
    pub trace_policy: String,
    /// Comma-joined technique tokens in plan order.
    pub techniques: String,
    /// Total chunks in the campaign's cycle-major chunk plan.
    pub chunks: usize,
    /// Total faults.
    pub faults: usize,
}

impl Fingerprint {
    /// Fingerprints a plan and the chunk space its engine derived.
    #[must_use]
    pub fn of(plan: &CampaignPlan<'_>, chunks: usize, faults: usize) -> Self {
        let circuit = plan.circuit();
        let tb = plan.testbench();
        let tokens: Vec<&str> =
            plan.techniques().iter().map(|&t| technique_token(t)).collect();
        Fingerprint {
            circuit_name: circuit.name().to_owned(),
            num_ffs: circuit.num_ffs(),
            num_cells: circuit.num_cells(),
            circuit_digest: circuit_digest(circuit),
            num_cycles: tb.num_cycles(),
            num_inputs: tb.num_inputs(),
            bench_digest: bench_digest(tb),
            source: source_label(plan.source()),
            trace_policy: plan.trace_policy().label(),
            techniques: tokens.join(","),
            chunks,
            faults,
        }
    }
}

// --------------------------------------------------------------------
// The checkpoint document

/// A parsed (or about-to-be-written) `seugrade-campaign-ckpt/v3` file.
///
/// ```text
/// seugrade-campaign-ckpt/v3
/// circuit <ffs> <cells> <hex16-digest> <name>
/// bench <cycles> <inputs> <hex16-digest>
/// source <label>
/// trace-policy <label>
/// techniques <comma-tokens>
/// space <total-chunks> <total-faults>
/// cursor <chunks-done> <faults-done>
/// meta <key> <value>              (zero or more; value may contain spaces)
/// sink <n>                        (followed by n sink payload lines)
/// <sink payload…>
/// end <hex16-checksum>
/// ```
///
/// The trailer is an FNV-1a checksum of every preceding line; a file
/// with no trailer is truncated, a file with a wrong trailer is damaged
/// — both are [`ResumeError::Corrupt`] on [`load`](Self::load).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    fingerprint: Fingerprint,
    chunks_done: usize,
    faults_done: usize,
    meta: Vec<(String, String)>,
    sink_lines: Vec<String>,
    /// 1-based file line of the first sink payload line (so sink parse
    /// errors carry real line numbers).
    sink_base_line: usize,
}

impl Checkpoint {
    /// Snapshots a running campaign.
    ///
    /// # Panics
    ///
    /// Panics if a meta key contains whitespace or a meta value or sink
    /// line contains a newline (the format is line-delimited).
    #[must_use]
    pub fn new<S: PersistentSink>(
        fingerprint: Fingerprint,
        chunks_done: usize,
        faults_done: usize,
        meta: Vec<(String, String)>,
        sink: &S,
    ) -> Self {
        for (k, v) in &meta {
            assert!(
                !k.is_empty() && !k.contains(char::is_whitespace),
                "meta key {k:?} must be a single token"
            );
            assert!(!v.contains('\n'), "meta value for {k:?} must be single-line");
        }
        let mut sink_lines = Vec::new();
        sink.save_lines(&mut sink_lines);
        assert!(
            sink_lines.iter().all(|l| !l.contains('\n')),
            "sink payload must be single-line records"
        );
        // Schema + 7 header lines + meta, then `sink <n>`; payload
        // starts on the next line.
        let sink_base_line = 8 + meta.len() + 2;
        Checkpoint { fingerprint, chunks_done, faults_done, meta, sink_lines, sink_base_line }
    }

    /// The campaign identity this checkpoint belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Chunks completed — always an exact prefix of the chunk queue.
    #[must_use]
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// Faults covered by the completed chunks.
    #[must_use]
    pub fn faults_done(&self) -> usize {
        self.faults_done
    }

    /// True when the campaign already finished.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.chunks_done == self.fingerprint.chunks
    }

    /// Caller-owned metadata, in write order.
    #[must_use]
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// First metadata value stored under `key`.
    #[must_use]
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Rebuilds the persisted sink.
    pub fn restore_sink<S: PersistentSink>(&self) -> Result<S, ResumeError> {
        S::restore_lines(&self.sink_lines, self.sink_base_line)
    }

    /// Renders the full file, trailer included.
    #[must_use]
    pub fn render(&self) -> String {
        let fp = &self.fingerprint;
        let mut lines = vec![
            CKPT_SCHEMA.to_owned(),
            format!(
                "circuit {} {} {:016x} {}",
                fp.num_ffs, fp.num_cells, fp.circuit_digest, fp.circuit_name
            ),
            format!("bench {} {} {:016x}", fp.num_cycles, fp.num_inputs, fp.bench_digest),
            format!("source {}", fp.source),
            format!("trace-policy {}", fp.trace_policy),
            format!("techniques {}", fp.techniques),
            format!("space {} {}", fp.chunks, fp.faults),
            format!("cursor {} {}", self.chunks_done, self.faults_done),
        ];
        for (k, v) in &self.meta {
            lines.push(format!("meta {k} {v}"));
        }
        lines.push(format!("sink {}", self.sink_lines.len()));
        lines.extend(self.sink_lines.iter().cloned());
        let body = lines.join("\n");
        format!("{body}\nend {:016x}\n", body_checksum(&body))
    }

    /// Writes the checkpoint atomically: a sibling `<path>.tmp` is
    /// written in full, then renamed over `path`, so a crash mid-write
    /// never leaves a torn checkpoint behind.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ResumeError> {
        let io = |e: std::io::Error| ResumeError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, self.render()).map_err(io)?;
        fs::rename(&tmp, path).map_err(io)
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ResumeError> {
        let text = fs::read_to_string(path).map_err(|e| ResumeError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Parses checkpoint text. Every failure names the first bad line.
    pub fn parse(text: &str) -> Result<Self, ResumeError> {
        let corrupt = |line: usize, msg: String| ResumeError::Corrupt { line, msg };
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err(corrupt(1, "empty file".to_owned()));
        }
        if lines[0] != CKPT_SCHEMA {
            // An older version's cursor counts chunks of another layout
            // or order: resuming it would grade the wrong faults.
            let version =
                |line: &str| line.strip_prefix("seugrade-campaign-ckpt/v")?.parse::<u32>().ok();
            let hint = match (version(lines[0]), version(CKPT_SCHEMA)) {
                (Some(old), Some(now)) if old < now => {
                    " (an older release's chunk order; grade the campaign afresh)"
                }
                _ => "",
            };
            return Err(corrupt(
                1,
                format!("unrecognized schema {:?}, expected {CKPT_SCHEMA:?}{hint}", lines[0]),
            ));
        }
        let last = lines.len();
        let Some(sum_hex) = lines[last - 1].strip_prefix("end ") else {
            return Err(corrupt(last, "missing end trailer (truncated file?)".to_owned()));
        };
        let stored_sum = u64::from_str_radix(sum_hex, 16)
            .map_err(|_| corrupt(last, format!("malformed checksum {sum_hex:?}")))?;
        let body = lines[..last - 1].join("\n");
        let actual = body_checksum(&body);
        if actual != stored_sum {
            return Err(corrupt(
                last,
                format!("checksum mismatch: file says {stored_sum:016x}, content hashes to {actual:016x}"),
            ));
        }

        // The checksum passed, so the content is what was written; the
        // field parses below catch writer/version skew rather than rot.
        let mut pos = 1; // index into `lines`; line number is pos + 1
        let body_lines = &lines[..last - 1];
        let mut next = |tag: &str| -> Result<(usize, &str), ResumeError> {
            let line_no = pos + 1;
            let Some(&line) = body_lines.get(pos) else {
                return Err(ResumeError::Corrupt {
                    line: line_no,
                    msg: format!("missing {tag} line"),
                });
            };
            pos += 1;
            line.strip_prefix(tag)
                .and_then(|r| r.strip_prefix(' ').or(Some(r).filter(|r| r.is_empty())))
                .map(|rest| (line_no, rest))
                .ok_or_else(|| ResumeError::Corrupt {
                    line: line_no,
                    msg: format!("expected a {tag} line, found {line:?}"),
                })
        };
        fn int(line: usize, what: &str, s: &str) -> Result<usize, ResumeError> {
            s.parse().map_err(|_| ResumeError::Corrupt {
                line,
                msg: format!("bad {what} {s:?}"),
            })
        }
        fn hex(line: usize, what: &str, s: &str) -> Result<u64, ResumeError> {
            u64::from_str_radix(s, 16).map_err(|_| ResumeError::Corrupt {
                line,
                msg: format!("bad {what} {s:?}"),
            })
        }

        let (ln, rest) = next("circuit")?;
        let mut it = rest.splitn(4, ' ');
        let (ffs, cells, cdig, cname) =
            match (it.next(), it.next(), it.next(), it.next()) {
                (Some(a), Some(b), Some(c), Some(d)) if !d.is_empty() => (a, b, c, d),
                _ => return Err(corrupt(ln, format!("malformed circuit line {rest:?}"))),
            };
        let num_ffs = int(ln, "flip-flop count", ffs)?;
        let num_cells = int(ln, "cell count", cells)?;
        let circuit_digest = hex(ln, "circuit digest", cdig)?;
        let circuit_name = cname.to_owned();

        let (ln, rest) = next("bench")?;
        let parts: Vec<&str> = rest.split(' ').collect();
        if parts.len() != 3 {
            return Err(corrupt(ln, format!("malformed bench line {rest:?}")));
        }
        let num_cycles = int(ln, "cycle count", parts[0])?;
        let num_inputs = int(ln, "input count", parts[1])?;
        let bench_digest = hex(ln, "bench digest", parts[2])?;

        let (_, source) = next("source")?;
        let source = source.to_owned();

        // Like the source label, the trace-policy label is kept as
        // written: a label no plan produces (such as a retired `dense`)
        // is a `trace policy` mismatch on resume, not corruption.
        let (_, tp) = next("trace-policy")?;
        let trace_policy = tp.to_owned();

        let (ln, toks) = next("techniques")?;
        for t in toks.split(',') {
            if technique_from_token(t).is_none() {
                return Err(corrupt(ln, format!("unknown technique {t:?}")));
            }
        }
        let techniques = toks.to_owned();

        let (ln, rest) = next("space")?;
        let parts: Vec<&str> = rest.split(' ').collect();
        if parts.len() != 2 {
            return Err(corrupt(ln, format!("malformed space line {rest:?}")));
        }
        let chunks = int(ln, "chunk count", parts[0])?;
        let faults = int(ln, "fault count", parts[1])?;

        let (cursor_ln, rest) = next("cursor")?;
        let parts: Vec<&str> = rest.split(' ').collect();
        if parts.len() != 2 {
            return Err(corrupt(cursor_ln, format!("malformed cursor line {rest:?}")));
        }
        let chunks_done = int(cursor_ln, "chunk cursor", parts[0])?;
        let faults_done = int(cursor_ln, "fault cursor", parts[1])?;
        if chunks_done > chunks || faults_done > faults {
            return Err(corrupt(cursor_ln, format!("cursor {chunks_done}/{faults_done} past the space {chunks}/{faults}")));
        }
        if (chunks_done == chunks) != (faults_done == faults) {
            return Err(corrupt(
                cursor_ln,
                format!("inconsistent cursor: {chunks_done}/{chunks} chunks but {faults_done}/{faults} faults"),
            ));
        }

        let mut meta = Vec::new();
        let sink_count;
        let sink_tag_ln;
        loop {
            let line_no = pos + 1;
            let Some(&line) = body_lines.get(pos) else {
                return Err(corrupt(line_no, "missing sink line".to_owned()));
            };
            pos += 1;
            if let Some(rest) = line.strip_prefix("meta ") {
                let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                if k.is_empty() {
                    return Err(corrupt(line_no, "empty meta key".to_owned()));
                }
                meta.push((k.to_owned(), v.to_owned()));
            } else if let Some(rest) = line.strip_prefix("sink ") {
                sink_count = int(line_no, "sink line count", rest)?;
                sink_tag_ln = line_no;
                break;
            } else {
                return Err(corrupt(
                    line_no,
                    format!("expected a meta or sink line, found {line:?}"),
                ));
            }
        }

        let sink_base_line = sink_tag_ln + 1;
        let remaining = body_lines.len() - pos;
        if remaining != sink_count {
            return Err(corrupt(
                sink_tag_ln,
                format!("sink declares {sink_count} lines but {remaining} follow"),
            ));
        }
        let sink_lines: Vec<String> =
            body_lines[pos..].iter().map(|&l| l.to_owned()).collect();

        Ok(Checkpoint {
            fingerprint: Fingerprint {
                circuit_name,
                num_ffs,
                num_cells,
                circuit_digest,
                num_cycles,
                num_inputs,
                bench_digest,
                source,
                trace_policy,
                techniques,
                chunks,
                faults,
            },
            chunks_done,
            faults_done,
            meta,
            sink_lines,
            sink_base_line,
        })
    }

    /// Verifies this checkpoint belongs to the campaign `current`
    /// fingerprints; the first disagreeing field is the error.
    pub fn verify(&self, current: &Fingerprint) -> Result<(), ResumeError> {
        fn check(
            field: &'static str,
            ckpt: impl fmt::Display,
            plan: impl fmt::Display,
        ) -> Result<(), ResumeError> {
            let (expected, found) = (ckpt.to_string(), plan.to_string());
            if expected == found {
                Ok(())
            } else {
                Err(ResumeError::Mismatch { field, expected, found })
            }
        }
        let fp = &self.fingerprint;
        check("circuit name", &fp.circuit_name, &current.circuit_name)?;
        check("flip-flop count", fp.num_ffs, current.num_ffs)?;
        check("cell count", fp.num_cells, current.num_cells)?;
        check(
            "circuit digest",
            format_args!("{:016x}", fp.circuit_digest),
            format_args!("{:016x}", current.circuit_digest),
        )?;
        check("cycle count", fp.num_cycles, current.num_cycles)?;
        check("input count", fp.num_inputs, current.num_inputs)?;
        check(
            "stimuli digest",
            format_args!("{:016x}", fp.bench_digest),
            format_args!("{:016x}", current.bench_digest),
        )?;
        check("fault source", &fp.source, &current.source)?;
        check("trace policy", &fp.trace_policy, &current.trace_policy)?;
        check("technique set", &fp.techniques, &current.techniques)?;
        check("chunk count", fp.chunks, current.chunks)?;
        check("fault count", fp.faults, current.faults)?;
        Ok(())
    }
}

// --------------------------------------------------------------------
// PersistentSink

/// A [`VerdictSink`] whose folded state can be checkpointed and
/// restored.
///
/// `save_lines` must emit single-line records; `restore_lines` receives
/// exactly those lines back (plus `base_line`, the 1-based file line of
/// `lines[0]`, so parse failures can name the offending file line).
/// Restoring the saved lines must reproduce the sink state exactly —
/// the resume-determinism suite checks the composition end to end.
pub trait PersistentSink: VerdictSink {
    /// Serializes the sink state as single-line records.
    fn save_lines(&self, out: &mut Vec<String>);

    /// Rebuilds a sink from its saved records.
    fn restore_lines(lines: &[String], base_line: usize) -> Result<Self, ResumeError>
    where
        Self: Sized;
}

impl PersistentSink for StreamAccumulator {
    fn save_lines(&self, out: &mut Vec<String>) {
        let s = self.summary();
        out.push(format!(
            "summary {} {} {}",
            s.count(FaultClass::Failure),
            s.count(FaultClass::Latent),
            s.count(FaultClass::Silent)
        ));
        out.push(format!("digest {:016x}", self.digest()));
        let map = self.failure_map();
        let mut line = format!("map {}", map.len());
        for v in map {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        out.push(line);
    }

    fn restore_lines(lines: &[String], base_line: usize) -> Result<Self, ResumeError> {
        let corrupt = |off: usize, msg: String| ResumeError::Corrupt {
            line: base_line + off,
            msg,
        };
        let field = |off: usize, tag: &str| -> Result<&str, ResumeError> {
            lines
                .get(off)
                .and_then(|l| l.strip_prefix(tag))
                .ok_or_else(|| corrupt(off, format!("expected a {tag}… sink line")))
        };
        let ints = |off: usize, what: &str, s: &str| -> Result<Vec<usize>, ResumeError> {
            s.split_whitespace()
                .map(|t| {
                    t.parse().map_err(|_| corrupt(off, format!("bad {what} {t:?}")))
                })
                .collect()
        };
        if lines.len() != 3 {
            return Err(corrupt(0, format!("expected 3 sink lines, found {}", lines.len())));
        }
        let counts = ints(0, "summary count", field(0, "summary ")?)?;
        if counts.len() != 3 {
            return Err(corrupt(0, format!("expected 3 summary counts, found {}", counts.len())));
        }
        let summary = seugrade_faultsim::GradingSummary::from_counts(
            counts[0], counts[1], counts[2],
        );
        let digest_hex = field(1, "digest ")?;
        let digest = u64::from_str_radix(digest_hex, 16)
            .map_err(|_| corrupt(1, format!("bad digest {digest_hex:?}")))?;
        let map_fields = ints(2, "failure-map entry", field(2, "map ")?)?;
        let Some((&len, map)) = map_fields.split_first() else {
            return Err(corrupt(2, "empty map line".to_owned()));
        };
        if map.len() != len {
            return Err(corrupt(
                2,
                format!("map declares {len} entries but carries {}", map.len()),
            ));
        }
        Ok(StreamAccumulator::from_parts(summary, map.to_vec(), digest))
    }
}

// --------------------------------------------------------------------
// Options

/// How a resumable streamed run persists, restarts, and fails.
#[derive(Clone, Debug)]
pub struct ResumeOptions {
    /// Checkpoint file path; `None` disables persistence (the run is
    /// still cancellable and panic-contained).
    pub checkpoint: Option<PathBuf>,
    /// Chunks between checkpoint writes.
    pub every: usize,
    /// Grade at most this many chunks in this invocation, then stop as
    /// if cancelled (deterministic interruption — the determinism suite
    /// and split-across-processes execution are built on this).
    pub limit: Option<usize>,
    /// Load `checkpoint`, verify its fingerprint, and continue from its
    /// cursor instead of starting fresh.
    pub resume: bool,
    /// Retries per panicking chunk before
    /// [`EngineError::WorkerPanic`](crate::EngineError::WorkerPanic).
    pub retry_budget: usize,
    /// Caller-owned key/value pairs stored verbatim in the checkpoint
    /// (the CLI keeps enough here to rebuild the plan from the file
    /// alone). Ignored when resuming — the loaded checkpoint's metadata
    /// is carried forward.
    pub meta: Vec<(String, String)>,
    /// Cooperative cancellation flag, polled at chunk boundaries.
    pub cancel: Option<CancelToken>,
    /// Per-chunk progress callback, invoked from worker threads as
    /// chunks finish (see [`ProgressHook`]). `None` costs nothing.
    pub progress: Option<ProgressHook>,
}

impl Default for ResumeOptions {
    fn default() -> Self {
        ResumeOptions {
            checkpoint: None,
            every: DEFAULT_CHECKPOINT_EVERY,
            limit: None,
            resume: false,
            retry_budget: crate::pool::DEFAULT_RETRY_BUDGET,
            meta: Vec::new(),
            cancel: None,
            progress: None,
        }
    }
}

impl ResumeOptions {
    /// Fresh run persisting to `path`.
    #[must_use]
    pub fn checkpoint_to(path: impl Into<PathBuf>) -> Self {
        ResumeOptions { checkpoint: Some(path.into()), ..Self::default() }
    }

    /// Resume a previously checkpointed run from `path`.
    #[must_use]
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        ResumeOptions { checkpoint: Some(path.into()), resume: true, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use seugrade_faultsim::FaultOutcome;
    use seugrade_netlist::FfIndex;

    use super::*;

    fn sample_fingerprint() -> Fingerprint {
        Fingerprint {
            circuit_name: "unit test circuit".to_owned(),
            num_ffs: 70,
            num_cells: 200,
            circuit_digest: 0x1234_5678_9abc_def0,
            num_cycles: 40,
            num_inputs: 3,
            bench_digest: 0x0fed_cba9_8765_4321,
            source: "sampled:1000:42".to_owned(),
            trace_policy: "checkpoint:64".to_owned(),
            techniques: "mask-scan,state-scan,time-mux".to_owned(),
            chunks: 80,
            faults: 2800,
        }
    }

    fn sample_sink() -> StreamAccumulator {
        let mut acc = StreamAccumulator::default();
        acc.observe(Fault::new(FfIndex::new(3), 5), FaultOutcome::failure(6));
        acc.observe(Fault::new(FfIndex::new(0), 1), FaultOutcome::silent(2));
        acc.observe(Fault::new(FfIndex::new(9), 0), FaultOutcome::latent());
        acc
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint::new(
            sample_fingerprint(),
            30,
            1050,
            vec![
                ("target".to_owned(), "s5378g".to_owned()),
                ("note".to_owned(), "value with spaces".to_owned()),
            ],
            &sample_sink(),
        )
    }

    #[test]
    fn render_parse_roundtrip() {
        let ck = sample_checkpoint();
        let text = ck.render();
        assert!(text.starts_with(CKPT_SCHEMA));
        assert!(text.ends_with('\n'));
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.fingerprint(), ck.fingerprint());
        assert_eq!(back.chunks_done(), 30);
        assert_eq!(back.faults_done(), 1050);
        assert!(!back.is_complete());
        assert_eq!(back.meta_get("target"), Some("s5378g"));
        assert_eq!(back.meta_get("note"), Some("value with spaces"));
        assert_eq!(back.meta_get("absent"), None);
        let sink: StreamAccumulator = back.restore_sink().unwrap();
        let reference = sample_sink();
        assert_eq!(sink.digest(), reference.digest());
        assert_eq!(sink.summary(), reference.summary());
        assert_eq!(sink.failure_map(), reference.failure_map());
    }

    #[test]
    fn restored_sink_keeps_accumulating() {
        let text = sample_checkpoint().render();
        let back = Checkpoint::parse(&text).unwrap();
        let mut restored: StreamAccumulator = back.restore_sink().unwrap();
        let mut reference = sample_sink();
        let extra = (Fault::new(FfIndex::new(5), 7), FaultOutcome::failure(9));
        restored.observe(extra.0, extra.1);
        reference.observe(extra.0, extra.1);
        assert_eq!(restored.digest(), reference.digest());
        assert_eq!(restored.failure_map(), reference.failure_map());
    }

    #[test]
    fn every_truncation_is_rejected_with_a_line_number() {
        let text = sample_checkpoint().render();
        let n = text.lines().count();
        for keep in 0..n {
            let truncated: String = text
                .lines()
                .take(keep)
                .map(|l| format!("{l}\n"))
                .collect();
            let err = Checkpoint::parse(&truncated).unwrap_err();
            match err {
                ResumeError::Corrupt { line, .. } => {
                    assert!(line >= 1 && line <= keep.max(1), "keep {keep}: line {line}")
                }
                other => panic!("keep {keep}: expected Corrupt, got {other}"),
            }
        }
    }

    #[test]
    fn checksum_detects_mutation() {
        let text = sample_checkpoint().render();
        // Flip one digit inside the cursor line.
        let mutated = text.replace("cursor 30 1050", "cursor 31 1050");
        assert_ne!(text, mutated);
        let err = Checkpoint::parse(&mutated).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected_on_line_one() {
        let err = Checkpoint::parse("some-other-format/v9\nend 0\n").unwrap_err();
        assert_eq!(err.line(), Some(1));
        assert!(err.to_string().contains("unrecognized schema"), "{err}");
        assert!(!err.to_string().contains("older release"), "{err}");
    }

    #[test]
    fn older_schema_versions_are_rejected_with_a_hint() {
        let text = sample_checkpoint().render();
        for old in ["seugrade-campaign-ckpt/v1", "seugrade-campaign-ckpt/v2"] {
            let err = Checkpoint::parse(&text.replacen(CKPT_SCHEMA, old, 1)).unwrap_err();
            assert_eq!(err.line(), Some(1), "{old}");
            assert!(err.to_string().contains("older release's chunk order"), "{err}");
        }
        let newer = text.replacen(CKPT_SCHEMA, "seugrade-campaign-ckpt/v4", 1);
        assert!(!Checkpoint::parse(&newer).unwrap_err().to_string().contains("older"));
    }

    #[test]
    fn inconsistent_cursor_is_rejected() {
        // Re-render with a cursor claiming all chunks but not all faults.
        let mut ck = sample_checkpoint();
        ck.chunks_done = ck.fingerprint.chunks;
        ck.faults_done = 5;
        let err = Checkpoint::parse(&ck.render()).unwrap_err();
        assert!(err.to_string().contains("inconsistent cursor"), "{err}");
    }

    #[test]
    fn verify_pinpoints_the_field() {
        let ck = sample_checkpoint();
        let mut other = sample_fingerprint();
        other.trace_policy = "dense".to_owned();
        let err = ck.verify(&other).unwrap_err();
        match err {
            ResumeError::Mismatch { field, expected, found } => {
                assert_eq!(field, "trace policy");
                assert_eq!(expected, "checkpoint:64");
                assert_eq!(found, "dense");
            }
            other => panic!("expected Mismatch, got {other}"),
        }
        assert!(ck.verify(&sample_fingerprint()).is_ok());
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("seugrade-ckpt-test-{}.ckpt", std::process::id()));
        let ck = sample_checkpoint();
        ck.write_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.fingerprint(), ck.fingerprint());
        // Overwrite in place (the steady-state of a running campaign).
        ck.write_atomic(&path).unwrap();
        assert!(Checkpoint::load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, ResumeError::Io { .. }), "{err}");
    }

    #[test]
    fn circuit_digest_distinguishes_same_dimension_designs() {
        use seugrade_circuits::generators;
        // counter(4) and lfsr(4, ..) both have 0 inputs and 4 flip-flops.
        let a = generators::counter(4);
        let b = generators::lfsr(4, &[3, 2]);
        assert_ne!(circuit_digest(&a), circuit_digest(&b));
        assert_eq!(circuit_digest(&a), circuit_digest(&generators::counter(4)));
    }

    #[test]
    fn bench_digest_distinguishes_stimuli() {
        let a = Testbench::random(3, 20, 1);
        let b = Testbench::random(3, 20, 2);
        assert_ne!(bench_digest(&a), bench_digest(&b));
        assert_eq!(bench_digest(&a), bench_digest(&Testbench::random(3, 20, 1)));
    }

    #[test]
    fn source_labels() {
        assert_eq!(source_label(&FaultSource::Exhaustive), "exhaustive");
        assert_eq!(
            source_label(&FaultSource::Sampled { count: 9, seed: 4 }),
            "sampled:9:4"
        );
        let list = seugrade_faultsim::FaultList::sampled(8, 10, 5, 1);
        let label = source_label(&FaultSource::List(list.clone()));
        assert!(label.starts_with("list:5:"), "{label}");
        // Same faults, same label; different faults, different label.
        assert_eq!(label, source_label(&FaultSource::List(list)));
        let other = seugrade_faultsim::FaultList::sampled(8, 10, 5, 2);
        assert_ne!(label, source_label(&FaultSource::List(other)));
    }

    #[test]
    fn resume_options_defaults() {
        let o = ResumeOptions::default();
        assert!(o.checkpoint.is_none() && !o.resume && o.limit.is_none());
        assert_eq!(o.every, DEFAULT_CHECKPOINT_EVERY);
        let r = ResumeOptions::resume_from("/tmp/x.ckpt");
        assert!(r.resume && r.checkpoint.is_some());
    }
}
