//! `gradebench` — end-to-end and per-layer benchmark of the seugrade
//! fault grader.
//!
//! ```text
//! gradebench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
//! gradebench rss --workload <name> --seed <n> --seconds <s> --work <dir>
//! ```
//!
//! `run` prints one `detail` JSON line (raw host numbers, reference
//! times, tail percentile, checks) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! `rss` does one set-up and one op of a workload and prints the
//! process's peak resident set in KiB; `run` starts it, with its own
//! flags, as a fresh child process for `peak_rss_mib`.
//!
//! Every host time is reported in ref-seconds: see `gradebench_ref`.
//! `run.py` next to this crate builds it, pins it to one CPU and checks
//! its output against `BENCHMARK.json`.

mod batch;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use gradebench_ref::{normalise, Reference};
use seugrade_serve::json::{self, Value};

use crate::stats::{median, tail};

/// `BENCHMARK.json`: the one list of the benchmark's metrics and units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one of `BENCHMARK.json`'s metric tables.
fn metric_table(key: &str) -> Result<Vec<(String, String)>, String> {
    let spec = json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).map(str::to_owned);
    spec.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(name), Some(unit)) => Ok((name, unit)),
            _ => Err(format!(
                "BENCHMARK.json: a {key} metric lacks a name or unit"
            )),
        })
        .collect()
}

/// The workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Exhaustive,
    Sampled,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Exhaustive, Workload::Sampled, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "exhaustive-s5378g",
            Workload::Sampled => "sampled-s38417g",
            Workload::Serve => "serve-s5378g",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Working directory inside the checkout: span files, serve spools.
    pub work: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut work) =
            (None, None, None, false, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *Workload::ALL
                            .iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("a workload name"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                "--work" => work = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            work: work.ok_or("--work is required")?,
        })
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.work.join(format!(
            "{}-seed{}.spans.jsonl",
            self.workload.name(),
            self.seed
        ))
    }
}

/// A seed for one input of a run, derived from the run's `--seed`.
pub fn derive_seed(seed: u64, input: u64) -> u64 {
    let mut z = seed ^ input.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One timed interval and the reference pass measured just before it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub raw_s: f64,
    pub ref_s: f64,
}

impl Timed {
    /// The interval in ref-seconds.
    pub fn norm(&self) -> f64 {
        normalise(self.raw_s, self.ref_s)
    }
}

/// Times intervals, each right after a reference measurement on the
/// same thread.
#[derive(Default)]
pub struct Clock {
    reference: Reference,
    /// Every reference measurement taken, in host seconds.
    pub refs: Vec<f64>,
}

impl Clock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let ref_s = self.measure_reference();
        let start = Instant::now();
        let out = f();
        (
            out,
            Timed {
                raw_s: start.elapsed().as_secs_f64(),
                ref_s,
            },
        )
    }

    pub fn measure_reference(&mut self) -> f64 {
        let ref_s = self.reference.measure();
        self.refs.push(ref_s);
        ref_s
    }
}

/// What a run found: op counts, checks, metrics and details.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(&'static str, f64)>,
    raw: Vec<(&'static str, Value)>,
    detail: Vec<(&'static str, Value)>,
}

impl Report {
    /// An end-to-end metric, with its raw host value beside it.
    pub fn e2e(&mut self, name: &'static str, value: f64, raw: f64) {
        self.metrics.push((name, value));
        self.raw.push((name, Value::num(raw)));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &'static str, value: Value) {
        self.detail.push((key, value));
    }

    /// `setup_s`: the median of the run's set-ups, each given as
    /// `(ref-seconds, host seconds)`.
    pub fn setup(&mut self, setups: &[(f64, f64)]) {
        let norm: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let raw: Vec<f64> = setups.iter().map(|s| s.1).collect();
        self.e2e("setup_s", median(&norm), median(&raw));
    }

    /// `job_latency_p50_s` and `job_latency_tail_s` over the run's jobs.
    pub fn latency(&mut self, jobs: &[Timed]) {
        let norm: Vec<f64> = jobs.iter().map(Timed::norm).collect();
        let raw: Vec<f64> = jobs.iter().map(|t| t.raw_s).collect();
        self.e2e("job_latency_p50_s", median(&norm), median(&raw));
        let (value, percentile, samples) = tail(&norm);
        self.e2e("job_latency_tail_s", value, tail(&raw).0);
        self.detail("job_latency_tail_percentile", Value::num(percentile));
        self.detail("job_latency_samples", Value::count(samples));
    }

    /// Checks the metric set against `BENCHMARK.json` and renders the
    /// detail line and the result line. Every workload reports every
    /// end-to-end metric; a layer a workload does not reach reports 0.
    fn render(self, args: &Args) -> Result<(String, String), String> {
        let table = metric_table(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        })?;
        let mut metrics = Vec::new();
        for (name, unit) in &table {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if args.trace => 0.0,
                None => return Err(format!("{} did not measure {name}", args.workload.name())),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not a finite number: {value}"));
            }
            metrics.push((
                name.as_str(),
                Value::obj(vec![
                    ("value", Value::num(value)),
                    ("unit", Value::str(unit)),
                ]),
            ));
        }
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !table.iter().any(|t| t.0 == *n))
        {
            return Err(format!("{name} is not in BENCHMARK.json"));
        }
        let mut detail = vec![
            ("workload", Value::str(args.workload.name())),
            ("seed", Value::num(args.seed as f64)),
            ("trace", Value::Bool(args.trace)),
        ];
        detail.extend(self.detail);
        if !self.raw.is_empty() {
            detail.push(("raw", Value::obj(self.raw)));
        }
        let result = Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::count(self.attempted)),
            ("failed", Value::count(self.failed)),
            ("metrics", Value::obj(metrics)),
        ]);
        Ok((
            Value::obj(vec![("detail", Value::obj(detail))]).to_line(),
            result.to_line(),
        ))
    }
}

/// Fresh processes the memory probe runs in. `peak_rss_mib` is the
/// lowest of their peaks: the serve daemon's peak is bimodal (about
/// 6.9 or 9.8 MiB for the same seed, the higher one in a third to two
/// thirds of processes depending on the seed), and a small process's
/// peak moves by a few hundred KiB from run to run.
const RSS_PROBES: usize = 9;

/// Peak resident set of a fresh process that does one set-up and one op
/// of the workload, in MiB: the lowest over [`RSS_PROBES`] processes.
fn peak_rss_mib(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args([
                "rss",
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.as_secs_f64().to_string(),
            ])
            .arg("--work")
            .arg(&args.work)
            .output()
            .map_err(|e| format!("starting the memory probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match (out.status.success(), text.trim().parse::<f64>()) {
            (true, Ok(kib)) => peaks.push(kib / 1024.0),
            _ => {
                return Err(format!(
                    "memory probe failed ({}): {}{}",
                    out.status,
                    text,
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    Ok(peaks.into_iter().fold(f64::INFINITY, f64::min))
}

/// `VmHWM` of this process, in KiB.
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("creating {:?}: {e}", args.work))?;
    let mut report = match args.workload {
        Workload::Exhaustive => batch::run(&batch::EXHAUSTIVE, args)?,
        Workload::Sampled => batch::run(&batch::SAMPLED, args)?,
        Workload::Serve => serve::run(args)?,
    };
    if !args.trace {
        let rss = peak_rss_mib(args)?;
        report.e2e("peak_rss_mib", rss, rss);
    }
    let (detail, result) = report.render(args)?;
    println!("{detail}");
    println!("{result}");
    Ok(())
}

fn rss(args: &Args) -> Result<(), String> {
    match args.workload {
        Workload::Exhaustive => batch::peak_memory_probe(&batch::EXHAUSTIVE, args.seed)?,
        Workload::Sampled => batch::peak_memory_probe(&batch::SAMPLED, args.seed)?,
        Workload::Serve => serve::peak_memory_probe(args)?,
    }
    println!("{}", vm_hwm_kib()?);
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = Args::parse(argv).and_then(|args| match command.as_str() {
        "run" => run(&args),
        "rss" => rss(&args),
        other => Err(format!("unknown command {other:?}; expected run or rss")),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gradebench: {e}");
            ExitCode::FAILURE
        }
    }
}
