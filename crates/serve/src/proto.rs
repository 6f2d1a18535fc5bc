//! The `seugrade-serve/v1` wire grammar: requests, responses, events.
//!
//! One JSON object per line in both directions. Every server line
//! carries `"schema":"seugrade-serve/v1"`; responses carry `"ok"`
//! (`true`/`false`), failures a structured `"error"` object with the
//! 1-based request **line number** of the offending line on its
//! connection and a message — mirroring the line-numbered
//! `ResumeError`s of the checkpoint format. A malformed request is
//! answered and the connection stays open; hostile bytes never panic
//! the daemon (`tests/hostile_inputs.rs` enforces this). The normative
//! grammar lives in `docs/PROTOCOL.md`.

use std::fmt;
use std::io::{self, Write};

use seugrade_engine::ProgressEvent;
use seugrade_faultsim::sampling::estimate_classes;
use seugrade_faultsim::{Collapse, FaultClass, GradingSummary};
use seugrade_netlist::SourceFormat;
use seugrade_sim::TracePolicy;

use crate::json::{self, Value};

/// Schema tag on every server-emitted line; bump on breaking changes.
pub const SERVE_SCHEMA: &str = "seugrade-serve/v1";

/// Default number of test-bench vectors when a job omits `vectors`.
pub const DEFAULT_VECTORS: usize = 100;

/// Default test-bench / sampling seed when a job omits `seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Default chunks per scheduling round (and per checkpoint write).
pub const DEFAULT_ROUND: usize = 64;

/// Most test-bench vectors a job may ask for.
pub const MAX_VECTORS: usize = 1 << 16;

/// Most engine worker threads a job may ask for.
pub const MAX_THREADS: usize = 256;

/// Most chunks a job may grade per round.
pub const MAX_ROUND: usize = 1 << 20;

/// Most faults a job may sample. A sample is drawn and held in memory.
pub const MAX_SAMPLE: usize = 1 << 22;

/// Largest fault space, flip-flops × vectors, a job may grade.
pub const MAX_FAULT_SPACE: usize = 1 << 26;

/// Most stimulus bits, inputs × vectors, a job's test bench may hold.
pub const MAX_STIMULUS_BITS: usize = 1 << 24;

/// Most bytes of inline netlist source a job may carry. It sits below
/// the request-line cap, so an over-limit source is answered with a
/// field-naming rejection on a connection that stays open.
pub const MAX_SOURCE_BYTES: usize = 1 << 22;

/// Most cells (inputs, constants, gates and flip-flops) a job's circuit
/// may have; 14× the largest registry circuit, s38417g.
pub const MAX_CELLS: usize = 1 << 18;

const _: () = assert!(MAX_SOURCE_BYTES < crate::server::MAX_REQUEST_BYTES);

// --------------------------------------------------------------------
// Job specification

/// Where a job's circuit comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// A name in the bundled [`seugrade_circuits::registry`].
    Registry(String),
    /// Inline netlist text in one of the importable formats.
    Inline {
        /// Source grammar of `source`.
        format: SourceFormat,
        /// The netlist text itself.
        source: String,
    },
}

/// One campaign job, as submitted over the protocol and spooled to
/// disk. The same spec graded solo through the engine produces the
/// same verdict digest — the multi-tenant determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The circuit to grade.
    pub circuit: CircuitSource,
    /// Test-bench length in cycles (seeded random vectors).
    pub vectors: usize,
    /// Seed for the test bench and (when sampling) the fault sample.
    pub seed: u64,
    /// `Some(n)`: grade a seeded uniform sample of `n` faults instead
    /// of the exhaustive `flip-flops × cycles` space.
    pub sample: Option<usize>,
    /// Golden-trace checkpoint interval ([`TracePolicy::default`] unless
    /// the request names one).
    pub trace_policy: TracePolicy,
    /// Early fault collapse on (`Early`) or off (`Horizon`).
    pub collapse: Collapse,
    /// Engine worker threads while a round of this job runs.
    pub threads: usize,
    /// Chunks per scheduling round; also the checkpoint interval.
    pub round: usize,
}

impl JobSpec {
    /// A spec for a registry circuit with every knob at its default.
    #[must_use]
    pub fn registry(name: impl Into<String>) -> Self {
        JobSpec {
            circuit: CircuitSource::Registry(name.into()),
            vectors: DEFAULT_VECTORS,
            seed: DEFAULT_SEED,
            sample: None,
            trace_policy: TracePolicy::default(),
            collapse: Collapse::Early,
            threads: 1,
            round: DEFAULT_ROUND,
        }
    }

    /// A short human label for the circuit: its registry name, or
    /// `inline:<format>` for inline netlists.
    #[must_use]
    pub fn circuit_label(&self) -> String {
        match &self.circuit {
            CircuitSource::Registry(name) => name.clone(),
            CircuitSource::Inline { format, .. } => format!("inline:{}", format.label()),
        }
    }

    /// Serializes the spec as the protocol's `job` object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut pairs = Vec::new();
        match &self.circuit {
            CircuitSource::Registry(name) => pairs.push(("circuit", Value::str(name.clone()))),
            CircuitSource::Inline { format, source } => pairs.push((
                "netlist",
                Value::obj(vec![
                    ("format", Value::str(format.label())),
                    ("source", Value::str(source.clone())),
                ]),
            )),
        }
        pairs.push(("vectors", Value::count(self.vectors)));
        pairs.push(("seed", Value::count(self.seed as usize)));
        if let Some(n) = self.sample {
            pairs.push(("sample", Value::count(n)));
        }
        pairs.push(("trace_policy", Value::str(self.trace_policy.label())));
        pairs.push(("collapse", Value::str(self.collapse.label())));
        pairs.push(("threads", Value::count(self.threads)));
        pairs.push(("round", Value::count(self.round)));
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Checks the spec against the per-job limits that need no circuit:
    /// the counts ([`MAX_VECTORS`], [`MAX_THREADS`], [`MAX_ROUND`],
    /// [`MAX_SAMPLE`]) and the inline source size ([`MAX_SOURCE_BYTES`]),
    /// so an oversized source is rejected before it is imported.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the first field over its limit.
    pub fn check_limits(&self) -> Result<(), ProtoError> {
        let fields = [
            ("vectors", self.vectors, MAX_VECTORS),
            ("threads", self.threads, MAX_THREADS),
            ("round", self.round, MAX_ROUND),
            ("sample", self.sample.unwrap_or(0), MAX_SAMPLE),
        ];
        if let Some((key, n, max)) = fields.into_iter().find(|&(_, n, max)| n > max) {
            return Err(ProtoError { msg: format!("job.{key} is {n}, over the limit of {max}") });
        }
        match &self.circuit {
            CircuitSource::Inline { source, .. } if source.len() > MAX_SOURCE_BYTES => {
                Err(ProtoError {
                    msg: format!(
                        "job.netlist.source is {} bytes, over the limit of {MAX_SOURCE_BYTES}",
                        source.len()
                    ),
                })
            }
            _ => Ok(()),
        }
    }

    /// Parses the protocol's `job` object back into a spec.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the offending field, including a count
    /// over its limit ([`check_limits`](Self::check_limits)); never a
    /// panic.
    pub fn from_value(v: &Value) -> Result<JobSpec, ProtoError> {
        let bad = |msg: String| ProtoError { msg };
        if !matches!(v, Value::Obj(_)) {
            return Err(bad("job must be an object".to_owned()));
        }
        let circuit = match (v.get("circuit"), v.get("netlist")) {
            (Some(name), None) => CircuitSource::Registry(
                name.as_str()
                    .ok_or_else(|| bad("job.circuit must be a registry name string".to_owned()))?
                    .to_owned(),
            ),
            (None, Some(inline)) => {
                let format_label = inline
                    .get("format")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("job.netlist.format must be a string".to_owned()))?;
                let format = SourceFormat::from_label(format_label).ok_or_else(|| {
                    bad(format!(
                        "job.netlist.format expects bench|blif|snl|verilog|vhdl, got {format_label:?}"
                    ))
                })?;
                let source = inline
                    .get("source")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("job.netlist.source must be a string".to_owned()))?;
                CircuitSource::Inline { format, source: source.to_owned() }
            }
            (Some(_), Some(_)) => {
                return Err(bad("job carries both circuit and netlist; pick one".to_owned()))
            }
            (None, None) => {
                return Err(bad("job needs a circuit (registry name) or netlist".to_owned()))
            }
        };
        let count_field = |key: &str, default: usize| -> Result<usize, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(n) => n
                    .as_usize()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad(format!("job.{key} must be a positive integer"))),
            }
        };
        let vectors = count_field("vectors", DEFAULT_VECTORS)?;
        let seed = match v.get("seed") {
            None => DEFAULT_SEED,
            Some(n) => n
                .as_u64()
                .ok_or_else(|| bad("job.seed must be a non-negative integer".to_owned()))?,
        };
        let sample = match v.get("sample") {
            None => None,
            Some(_) => Some(count_field("sample", 1)?),
        };
        let trace_policy = match v.get("trace_policy") {
            None => TracePolicy::default(),
            Some(p) => {
                let label = p
                    .as_str()
                    .ok_or_else(|| bad("job.trace_policy must be a string".to_owned()))?;
                TracePolicy::from_label(label).ok_or_else(|| {
                    bad(format!("job.trace_policy expects checkpoint:<K>, got {label:?}"))
                })?
            }
        };
        let collapse = match v.get("collapse") {
            None => Collapse::Early,
            Some(c) => {
                let label =
                    c.as_str().ok_or_else(|| bad("job.collapse must be a string".to_owned()))?;
                Collapse::from_label(label)
                    .ok_or_else(|| bad(format!("job.collapse expects on|off, got {label:?}")))?
            }
        };
        let threads = count_field("threads", 1)?;
        let round = count_field("round", DEFAULT_ROUND)?;
        let spec = JobSpec { circuit, vectors, seed, sample, trace_policy, collapse, threads, round };
        spec.check_limits()?;
        Ok(spec)
    }
}

// --------------------------------------------------------------------
// Requests

/// A parsed client request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a new campaign job.
    Submit(Box<JobSpec>),
    /// Snapshot one job.
    Status {
        /// Job id, e.g. `j3`.
        job: String,
    },
    /// Snapshot every job the daemon knows.
    List,
    /// Switch this connection to the job's event stream until the job
    /// reaches a terminal state.
    Stream {
        /// Job id.
        job: String,
    },
    /// Cooperatively cancel a job (its spooled checkpoint survives).
    Cancel {
        /// Job id.
        job: String,
    },
    /// Re-enqueue a cancelled (or failed-but-spooled) job; it resumes
    /// from its per-job checkpoint.
    Resume {
        /// Job id.
        job: String,
    },
    /// Gracefully stop the daemon: cancel in-flight jobs, write final
    /// checkpoints, exit 0.
    Shutdown,
}

/// A protocol-level failure: the message of a structured error
/// response. The connection layer adds the request line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the request.
    pub msg: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ProtoError {}

/// Parses one request line.
///
/// # Errors
///
/// Every malformed line — invalid JSON, a non-object, a missing or
/// unknown `cmd`, bad fields — is a [`ProtoError`] with a descriptive
/// message; hostile input never panics.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError { msg: e.to_string() })?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ProtoError { msg: "request must be a JSON object".to_owned() });
    }
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError { msg: "request needs a string `cmd` field".to_owned() })?;
    let job_field = || -> Result<String, ProtoError> {
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProtoError { msg: format!("`{cmd}` needs a string `job` id") })
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let spec = v
                .get("job")
                .ok_or_else(|| ProtoError { msg: "`submit` needs a `job` object".to_owned() })?;
            Ok(Request::Submit(Box::new(JobSpec::from_value(spec)?)))
        }
        "status" => Ok(Request::Status { job: job_field()? }),
        "stream" => Ok(Request::Stream { job: job_field()? }),
        "cancel" => Ok(Request::Cancel { job: job_field()? }),
        "resume" => Ok(Request::Resume { job: job_field()? }),
        other => Err(ProtoError {
            msg: format!(
                "unknown cmd {other:?}; expected ping|submit|status|list|stream|cancel|resume|shutdown"
            ),
        }),
    }
}

// --------------------------------------------------------------------
// Responses and events

/// Writes `line` and its newline in one `write_all`, so on a
/// `TCP_NODELAY` socket a protocol line leaves as one segment and wakes
/// its reader once.
///
/// # Errors
///
/// Propagates write failures.
pub(crate) fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// A successful response line: `schema`, `ok:true`, then `fields`.
#[must_use]
pub fn ok_response(fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("schema", Value::str(SERVE_SCHEMA)), ("ok", Value::Bool(true))];
    pairs.extend(fields);
    Value::obj(pairs).to_line()
}

/// A structured error response line carrying the 1-based request line
/// number on this connection and the failure message.
#[must_use]
pub fn err_response(line: usize, msg: &str) -> String {
    Value::obj(vec![
        ("schema", Value::str(SERVE_SCHEMA)),
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::obj(vec![("line", Value::count(line)), ("msg", Value::str(msg))]),
        ),
    ])
    .to_line()
}

/// Formats a verdict digest the way every schema in this workspace
/// spells it: 16 lowercase hex digits.
#[must_use]
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Shared event serializer for per-chunk engine progress — used both by
/// the daemon (tagged with a job id) and by `repro -- grade --progress
/// json` (untagged, on stderr). One line, no trailing newline.
#[must_use]
pub fn chunk_event_line(job: Option<&str>, ev: &ProgressEvent) -> String {
    let mut pairs = vec![
        ("schema", Value::str(SERVE_SCHEMA)),
        ("type", Value::str("event")),
        ("event", Value::str("chunk")),
    ];
    if let Some(id) = job {
        pairs.push(("job", Value::str(id)));
    }
    pairs.push(("shard", Value::count(ev.shard)));
    pairs.push(("faults", Value::count(ev.faults)));
    pairs.extend(summary_fields(&ev.summary));
    Value::obj(pairs).to_line()
}

/// The protocol key of each fault class's tally, in report order.
const CLASS_KEYS: [(FaultClass, &str); 3] = [
    (FaultClass::Failure, "failures"),
    (FaultClass::Latent, "latents"),
    (FaultClass::Silent, "silents"),
];

/// The three per-class tally fields shared by events and snapshots.
#[must_use]
pub(crate) fn summary_fields(summary: &GradingSummary) -> Vec<(&'static str, Value)> {
    CLASS_KEYS.iter().map(|&(class, key)| (key, Value::count(summary.count(class)))).collect()
}

/// The `ci95` snapshot field of a sampled job: per class, the 95 %
/// Wilson interval `[low, high]` of its percentage, in percent rounded
/// to two decimals. `None` for an empty summary.
#[must_use]
pub(crate) fn ci95_value(summary: &GradingSummary) -> Option<Value> {
    if summary.total() == 0 {
        return None;
    }
    let round = |pct: f64| Value::num((pct * 100.0).round() / 100.0);
    let estimates = estimate_classes(summary);
    let pairs = CLASS_KEYS
        .iter()
        .map(|&(class, key)| {
            let e = estimates.iter().find(|e| e.class == class).expect("every class estimated");
            (key, Value::Arr(vec![round(e.low), round(e.high)]))
        })
        .collect();
    Some(Value::obj(pairs))
}

/// A job-scoped event line of kind `event` with extra `fields`.
#[must_use]
pub fn job_event_line(event: &str, job: &str, fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![
        ("schema", Value::str(SERVE_SCHEMA)),
        ("type", Value::str("event")),
        ("event", Value::str(event)),
        ("job", Value::str(job)),
    ];
    pairs.extend(fields);
    Value::obj(pairs).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_registry_and_inline() {
        let mut spec = JobSpec::registry("s27");
        spec.sample = Some(128);
        spec.trace_policy = TracePolicy::Checkpoint(16);
        spec.collapse = Collapse::Horizon;
        spec.round = 8;
        let back = JobSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);

        let inline = JobSpec {
            circuit: CircuitSource::Inline {
                format: SourceFormat::Bench,
                source: "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n".to_owned(),
            },
            ..JobSpec::registry("ignored")
        };
        assert_eq!(JobSpec::from_value(&inline.to_value()).unwrap(), inline);
    }

    #[test]
    fn request_parse_accepts_every_cmd() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"cmd":"list"}"#).unwrap(), Request::List);
        assert_eq!(parse_request(r#"{"cmd":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert!(matches!(
            parse_request(r#"{"cmd":"status","job":"j1"}"#).unwrap(),
            Request::Status { job } if job == "j1"
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","job":{"circuit":"s27"}}"#).unwrap(),
            Request::Submit(spec) if spec.vectors == DEFAULT_VECTORS
        ));
    }

    #[test]
    fn request_parse_rejects_structurally() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "42",
            r#"{"cmd":7}"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","job":{"circuit":"s27","netlist":{}}}"#,
            r#"{"cmd":"submit","job":{"circuit":"s27","vectors":0}}"#,
            r#"{"cmd":"submit","job":{"netlist":{"format":"edif","source":""}}}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(!err.msg.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn response_lines_are_valid_json() {
        let ok = ok_response(vec![("job", Value::str("j1"))]);
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SERVE_SCHEMA));

        let err = err_response(3, "unknown cmd \"warp\"");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("line").and_then(Value::as_usize), Some(3));
        assert!(e.get("msg").and_then(Value::as_str).unwrap().contains("warp"));
    }

    #[test]
    fn chunk_event_tags_job_only_for_the_daemon() {
        let ev = ProgressEvent { shard: 5, faults: 64, summary: GradingSummary::new() };
        let daemon = json::parse(&chunk_event_line(Some("j2"), &ev)).unwrap();
        assert_eq!(daemon.get("job").and_then(Value::as_str), Some("j2"));
        assert_eq!(daemon.get("shard").and_then(Value::as_usize), Some(5));
        let cli = json::parse(&chunk_event_line(None, &ev)).unwrap();
        assert!(cli.get("job").is_none());
        assert_eq!(cli.get("event").and_then(Value::as_str), Some("chunk"));
    }

    #[test]
    fn digest_spelling_matches_checkpoint_format() {
        assert_eq!(digest_hex(0xdead_beef), "00000000deadbeef");
    }

    #[test]
    fn ci95_pins_the_wilson_interval_per_class() {
        // 20 of 100: the Wilson 95 % interval is 13.3 % .. 28.9 %.
        let ci = ci95_value(&GradingSummary::from_counts(20, 30, 50)).unwrap();
        let bounds = |key: &str| match ci.get(key).and_then(Value::as_arr) {
            Some([Value::Num(low), Value::Num(high)]) => format!("{low:.1}..{high:.1}"),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(bounds("failures"), "13.3..28.9");
        assert_eq!(bounds("silents"), "40.4..59.6");
        assert!(ci.get("latents").is_some());
        assert!(ci95_value(&GradingSummary::new()).is_none(), "no interval without faults");
    }
}
