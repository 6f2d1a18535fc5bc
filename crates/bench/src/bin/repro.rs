//! `repro` — regenerate every table and figure of the DATE'05 paper,
//! plus the external-netlist grading path and the campaign daemon.
//!
//! ```text
//! cargo run -p seugrade-bench --release --bin repro -- all
//! cargo run -p seugrade-bench --release --bin repro -- table2
//! cargo run -p seugrade-bench --release --bin repro -- crossover --quick
//! cargo run -p seugrade-bench --release --bin repro -- grade fixtures/s27.bench
//! ```
//!
//! Subcommands: `table1`, `table2`, `figure1`, `classification`, `speed`,
//! `crossover`, `ablations`, `sampling`, `all`, `grade`, `resume`,
//! `serve`, `submit`, `status`, `cancel`. `--quick` shrinks the
//! crossover sweep and the sample sizes. `--csv` additionally prints
//! machine-readable CSV blocks. Throughput is measured by the separate
//! `gradebench` harness (`python3 gradebench/run.py`), not by `repro`.
//!
//! `grade <target>` loads a circuit — a bundled registry name
//! (`repro -- grade s5378g`) or an external netlist file (ISCAS
//! `.bench`, structural BLIF or the native SNL format — auto-detected
//! from the extension, overridable with `--format bench|blif|snl|verilog|vhdl`) —
//! drives it with a seeded random test bench (`--vectors N`,
//! `--seed S`) and grades the `flip-flops × cycles` SEU fault space
//! (or a seeded uniform `--sample N` of it) through the engine's
//! memory-bounded **streaming** path (`--threads N`), printing the
//! failure/silent/latent breakdown, the golden-trace bits the
//! `--trace-policy checkpoint:K` (default `checkpoint:64`) actually
//! held beside the dense equivalent a whole-run record would take, and
//! the order-independent verdict digest. Verdicts are identical at
//! every thread count and checkpoint interval (the engine's determinism
//! guarantee).
//! The on-disk grammars are specified in `docs/FORMATS.md`.
//!
//! With `--checkpoint PATH` the grade rides the engine's **resumable**
//! path: progress is persisted atomically every `--checkpoint-every N`
//! chunks (default 256), Ctrl-C / SIGTERM drains the in-flight chunks,
//! writes a final checkpoint and exits with code 130, and
//! `repro -- resume PATH` rebuilds the campaign from the checkpoint's
//! own metadata, verifies the fingerprint against the reconstructed
//! plan, and continues from the saved cursor — the resumed verdict
//! digest is bit-identical to an uninterrupted run at any thread count.
//! A corrupt, truncated or mismatched checkpoint is rejected with a
//! line-numbered error and a non-zero exit, never a panic.
//!
//! `grade --progress json` additionally emits one `seugrade-serve/v1`
//! chunk event per graded chunk as a JSON line on **stderr** (stdout
//! keeps the human report) — the same serializer the daemon streams to
//! its subscribers.
//!
//! `serve` runs the campaign daemon (`--addr HOST:PORT`, `--workers N`,
//! `--spool DIR`): campaign jobs arrive as `seugrade-serve/v1` JSON
//! lines, any number of concurrent campaigns multiplex over one shared
//! worker pool, every job checkpoints to its spool directory, and
//! SIGINT/SIGTERM (or a protocol `shutdown`) drains in-flight rounds,
//! writes final checkpoints and exits 0 — a restarted daemon resumes
//! every incomplete spooled job. `submit <circuit-or-file>` (grade-style
//! flags; `--wait` blocks until terminal), `status [job]` (also honors
//! `--wait`) and `cancel <job>` are the matching clients; see
//! `docs/PROTOCOL.md`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use seugrade::experiments::{
    self, ablations_for, classification_for, crossover_for, figure1, sampling_for, speed_for,
    table1, table2_for, viper_crossover_cycles,
};
use seugrade::prelude::*;

struct Options {
    quick: bool,
    csv: bool,
    threads: Option<usize>,
    format: Option<SourceFormat>,
    vectors: usize,
    seed: u64,
    trace_policy: TracePolicy,
    collapse: Collapse,
    /// `--kernel auto|generic|differential`: the faulty-evaluation
    /// kernel workers grade with (a pure speed knob; verdicts and
    /// digests never change).
    kernel: Kernel,
    sample: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    /// `--progress json`: per-chunk `seugrade-serve/v1` events on stderr.
    progress_json: bool,
    addr: String,
    workers: usize,
    spool: String,
    wait: bool,
}

/// Exit code for a run interrupted by SIGINT/SIGTERM after draining
/// in-flight work and writing a final checkpoint (128 + SIGINT).
const EXIT_INTERRUPTED: i32 = 130;

fn parse_count(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let v = it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer, got `{v}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        quick: false,
        csv: false,
        threads: None,
        format: None,
        vectors: 100,
        seed: 42,
        trace_policy: TracePolicy::default(),
        collapse: Collapse::Early,
        kernel: Kernel::Auto,
        sample: None,
        checkpoint: None,
        checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        progress_json: false,
        addr: seugrade_serve::DEFAULT_ADDR.to_owned(),
        workers: seugrade_serve::DEFAULT_WORKERS,
        spool: "serve-spool".to_owned(),
        wait: false,
    };
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--threads" => opts.threads = Some(parse_count(&mut it, "--threads")),
            "--vectors" => opts.vectors = parse_count(&mut it, "--vectors"),
            "--seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                opts.seed = v.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--trace-policy" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--trace-policy needs a value");
                    std::process::exit(2);
                });
                opts.trace_policy = TracePolicy::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--trace-policy expects checkpoint:<K>, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--collapse" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--collapse needs a value");
                    std::process::exit(2);
                });
                opts.collapse = Collapse::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--collapse expects on|off, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--kernel" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--kernel needs a value");
                    std::process::exit(2);
                });
                opts.kernel = Kernel::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--kernel expects auto|generic|differential, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--sample" => opts.sample = Some(parse_count(&mut it, "--sample")),
            "--checkpoint" => {
                opts.checkpoint = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a path");
                    std::process::exit(2);
                }));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_count(&mut it, "--checkpoint-every");
            }
            "--format" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--format needs a value");
                    std::process::exit(2);
                });
                opts.format = Some(SourceFormat::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--format expects bench|blif|snl|verilog|vhdl, got `{v}`");
                    std::process::exit(2);
                }));
            }
            "--progress" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--progress needs a value");
                    std::process::exit(2);
                });
                if v != "json" {
                    eprintln!("--progress expects json, got `{v}`");
                    std::process::exit(2);
                }
                opts.progress_json = true;
            }
            "--addr" => {
                opts.addr = it.next().unwrap_or_else(|| {
                    eprintln!("--addr needs a host:port value");
                    std::process::exit(2);
                });
            }
            "--workers" => opts.workers = parse_count(&mut it, "--workers"),
            "--spool" => {
                opts.spool = it.next().unwrap_or_else(|| {
                    eprintln!("--spool needs a directory");
                    std::process::exit(2);
                });
            }
            "--wait" => opts.wait = true,
            s if s.starts_with("--") => {
                eprintln!("unknown flag `{s}`");
                std::process::exit(2);
            }
            _ => commands.push(a),
        }
    }
    let command = commands.first().map_or("all", String::as_str);

    let known = [
        "table1",
        "table2",
        "figure1",
        "classification",
        "speed",
        "crossover",
        "ablations",
        "sampling",
        "all",
        "grade",
        "resume",
        "serve",
        "submit",
        "status",
        "cancel",
    ];
    if !known.contains(&command) {
        eprintln!("unknown experiment `{command}`; expected one of {known:?}");
        std::process::exit(2);
    }

    let start = Instant::now();
    if command == "grade" {
        let Some(target) = commands.get(1) else {
            eprintln!(
                "usage: repro -- grade <file-or-registry-name> [--format bench|blif|snl|verilog|vhdl] \
                 [--threads N] [--vectors N] [--seed S] [--trace-policy checkpoint:K] \
                 [--kernel auto|generic|differential] [--sample N] [--checkpoint PATH] \
                 [--checkpoint-every N]"
            );
            std::process::exit(2);
        };
        run_grade(target, &opts);
        eprintln!("done in {:.1?}", start.elapsed());
        return;
    }
    if command == "resume" {
        let Some(path) = commands.get(1) else {
            eprintln!("usage: repro -- resume <checkpoint-path> [--threads N] [--checkpoint-every N]");
            std::process::exit(2);
        };
        run_resume(path, &opts);
        eprintln!("done in {:.1?}", start.elapsed());
        return;
    }
    if command == "serve" {
        run_serve(&opts);
        return;
    }
    if command == "submit" {
        let Some(target) = commands.get(1) else {
            eprintln!(
                "usage: repro -- submit <file-or-registry-name> [--addr HOST:PORT] \
                 [--format bench|blif|snl|verilog|vhdl] [--threads N] [--vectors N] [--seed S] \
                 [--trace-policy checkpoint:K] [--collapse on|off] [--sample N] [--wait]"
            );
            std::process::exit(2);
        };
        run_submit(target, &opts);
        return;
    }
    if command == "status" {
        run_status(commands.get(1).map(String::as_str), &opts);
        return;
    }
    if command == "cancel" {
        let Some(job) = commands.get(1) else {
            eprintln!("usage: repro -- cancel <job-id> [--addr HOST:PORT]");
            std::process::exit(2);
        };
        run_cancel(job, &opts);
        return;
    }

    let run_all = command == "all";

    // The graded campaign is shared by table2 / classification / speed.
    let campaign_needed = run_all
        || matches!(
            command,
            "table2" | "classification" | "speed" | "ablations" | "sampling"
        );
    let fixture = campaign_needed.then(|| {
        let circuit = viper::viper();
        let tb = stimuli::paper_testbench();
        eprintln!(
            "grading {} faults on {} ({} cycles)...",
            circuit.num_ffs() * tb.num_cycles(),
            circuit.name(),
            tb.num_cycles()
        );
        let campaign = AutonomousCampaign::new(&circuit, &tb);
        (circuit, tb, campaign)
    });

    if run_all || command == "figure1" {
        println!("{}", figure1().render());
    }
    if run_all || command == "table1" {
        eprintln!("mapping original, instrumented and controller netlists...");
        let t1 = table1();
        println!("{}", t1.render());
        if opts.csv {
            println!("{}", t1.to_csv());
        }
    }
    if let Some((circuit, tb, campaign)) = &fixture {
        if run_all || command == "table2" {
            let t2 = table2_for(campaign);
            println!("{}", t2.render());
            if opts.csv {
                println!("{}", t2.to_csv());
            }
        }
        if run_all || command == "classification" {
            println!("{}", classification_for(campaign).render());
        }
        if run_all || command == "speed" {
            let sample = if opts.quick { 64 } else { 512 };
            eprintln!("timing software fault simulation ({sample}-fault serial sample)...");
            let s = speed_for(circuit, tb, campaign, sample);
            println!("{}", s.render());
            println!(
                "fastest autonomous technique vs 2005 fault simulation: {:.1} orders of magnitude\n",
                s.orders_of_magnitude_vs_simulation()
            );
        }
        if run_all || command == "ablations" {
            println!("{}", ablations_for(campaign).render());
        }
        if run_all || command == "sampling" {
            let size = if opts.quick { 500 } else { 2_401 };
            let study = sampling_for(circuit, tb, campaign, size, 99);
            println!("{}", study.render());
        }
    }
    if run_all || command == "crossover" {
        let cycles = if opts.quick {
            vec![40, 160, 480]
        } else {
            viper_crossover_cycles()
        };
        eprintln!("crossover sweep over {cycles:?} cycles (one campaign each)...");
        let circuit = viper::viper();
        let x = crossover_for(&circuit, &cycles, stimuli::PAPER_SEED);
        println!("{}", x.render());
        if opts.csv {
            println!("{}", x.to_csv());
        }
    }

    let _ = experiments::paper_campaign; // documented entry point
    eprintln!("done in {:.1?}", start.elapsed());
}

/// The `grade` subcommand: load a circuit (bundled registry name or
/// external netlist file), grade its SEU fault space — exhaustive, or a
/// seeded uniform sample with `--sample N` — through the engine's
/// memory-bounded **streaming** path under the requested
/// `--trace-policy`, and print the per-class breakdown plus the
/// golden-trace memory the policy actually held.
fn run_grade(target: &str, opts: &Options) {
    let circuit = load_circuit(target, opts.format);
    eprintln!("{circuit}");

    // `--threads N` pins the worker count; otherwise defer to the
    // engine's own auto policy so `grade` resolves parallelism exactly
    // like every other engine entry point.
    let policy = opts.threads.map_or_else(ShardPolicy::auto, ShardPolicy::with_threads);
    let tb = Testbench::random(circuit.num_inputs(), opts.vectors, opts.seed);
    let space = circuit.num_ffs() * tb.num_cycles();
    let faults = opts.sample.map_or(space, |n| n.min(space));
    eprintln!(
        "grading {} of {} faults ({} FFs x {} cycles, seed {}, {}, kernel {}) on {} threads...",
        faults,
        space,
        circuit.num_ffs(),
        tb.num_cycles(),
        opts.seed,
        opts.trace_policy,
        opts.kernel.resolve(),
        policy.resolved_threads()
    );

    let mut builder = CampaignPlan::builder(&circuit, &tb)
        .policy(policy)
        .trace_policy(opts.trace_policy)
        .collapse(opts.collapse)
        .kernel(opts.kernel);
    if let Some(count) = opts.sample {
        builder = builder.sampled(count, opts.seed);
    }
    let plan = builder.build();
    let engine = Engine::new(&plan);
    let sampled = opts.sample.is_some();

    // One resumable run either way: with a checkpoint it persists every
    // `--checkpoint-every` chunks and drains on SIGINT/SIGTERM; without
    // one it grades every chunk in a single pool call.
    let mut ropts = match &opts.checkpoint {
        Some(path) => ResumeOptions {
            every: opts.checkpoint_every,
            cancel: Some(signal_cancel_token()),
            meta: grade_meta(target, opts),
            ..ResumeOptions::checkpoint_to(path)
        },
        None => ResumeOptions::default(),
    };
    ropts.progress = progress_hook(opts);
    let run = engine
        .run_streamed_resumable_with::<StreamAccumulator>(&plan, &ropts)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    match &opts.checkpoint {
        Some(path) => finish_resumable(&circuit, target, &engine, sampled, path, &run),
        None => print_streamed_report(
            &circuit,
            target,
            &engine,
            sampled,
            run.sink.summary(),
            &run.stats,
            run.sink.digest(),
        ),
    }
}

/// With `--progress json`: a hook that prints each chunk's
/// `seugrade-serve/v1` event line on stderr — the exact serializer the
/// daemon streams to subscribers, minus the job tag.
fn progress_hook(opts: &Options) -> Option<ProgressHook> {
    opts.progress_json.then(|| {
        ProgressHook::new(|ev| eprintln!("{}", seugrade_serve::proto::chunk_event_line(None, &ev)))
    })
}

/// The `resume` subcommand: load a checkpoint, rebuild the campaign from
/// the metadata the `grade` run stored in it, verify the fingerprint and
/// continue from the saved cursor. A second interruption writes another
/// checkpoint and exits 130 again — resume is idempotent.
fn run_resume(path: &str, opts: &Options) {
    let ck = Checkpoint::load(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let fp = ck.fingerprint();
    let target = ck.meta_get("target").unwrap_or_else(|| {
        eprintln!("checkpoint has no `target` metadata; it was not written by `repro -- grade`");
        std::process::exit(1);
    });
    let format = ck.meta_get("format").map(|v| {
        SourceFormat::from_label(v).unwrap_or_else(|| {
            eprintln!("checkpoint stores unknown source format `{v}`");
            std::process::exit(1);
        })
    });
    let vectors = resume_meta_count(&ck, "vectors");
    let seed = resume_meta_count(&ck, "seed") as u64;
    let sample = ck.meta_get("sample").map(|_| resume_meta_count(&ck, "sample"));
    let trace_policy = TracePolicy::from_label(&fp.trace_policy).unwrap_or_else(|| {
        eprintln!("checkpoint stores unknown trace policy `{}`", fp.trace_policy);
        std::process::exit(1);
    });
    eprintln!(
        "resuming `{}` from {}: chunk {}/{}, {}/{} faults graded",
        target,
        path,
        ck.chunks_done(),
        fp.chunks,
        ck.faults_done(),
        fp.faults,
    );

    let circuit = load_circuit(target, format);
    let policy = opts.threads.map_or_else(ShardPolicy::auto, ShardPolicy::with_threads);
    let tb = Testbench::random(circuit.num_inputs(), vectors, seed);
    let mut builder = CampaignPlan::builder(&circuit, &tb)
        .policy(policy)
        .trace_policy(trace_policy)
        .collapse(opts.collapse)
        .kernel(opts.kernel);
    if let Some(count) = sample {
        builder = builder.sampled(count, seed);
    }
    let plan = builder.build();
    let engine = Engine::new(&plan);

    let mut ropts = ResumeOptions::resume_from(path);
    ropts.every = opts.checkpoint_every;
    ropts.cancel = Some(signal_cancel_token());
    let target = target.to_owned();
    let run = engine
        .run_streamed_resumable_with::<StreamAccumulator>(&plan, &ropts)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    finish_resumable(&circuit, &target, &engine, sample.is_some(), path, &run);
}

/// The `serve` subcommand: run the campaign daemon until a protocol
/// `shutdown` or SIGINT/SIGTERM, then drain in-flight jobs (each writes
/// a final atomic checkpoint to its spool directory) and exit 0.
fn run_serve(opts: &Options) {
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        spool: opts.spool.clone().into(),
    };
    let mut server = Server::bind(&config).unwrap_or_else(|e| {
        eprintln!("cannot start daemon on {}: {e}", config.addr);
        std::process::exit(1);
    });
    eprintln!(
        "seugrade-serve listening on {} ({} workers, spool {})",
        server.local_addr(),
        config.workers,
        config.spool.display(),
    );
    server.serve_until(&signal_cancel_token());
    eprintln!("shutting down: draining in-flight jobs and writing final checkpoints...");
    server.shutdown();
    eprintln!("daemon stopped; spool {} is consistent", config.spool.display());
}

/// Connects to the daemon at `--addr`, exiting 1 with a message when it
/// is not reachable.
fn connect_client(opts: &Options) -> Client {
    Client::connect(&opts.addr as &str).unwrap_or_else(|e| {
        eprintln!("cannot reach daemon at {}: {e}", opts.addr);
        std::process::exit(1);
    })
}

/// Unwraps a client call, exiting 1 with the server's (or transport's)
/// message on failure.
fn client_ok<T>(result: Result<T, ClientError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// The `submit` subcommand: build a job spec from grade-style flags —
/// registry circuits travel by name, external netlist files inline —
/// submit it, and with `--wait` block until the job is terminal.
fn run_submit(target: &str, opts: &Options) {
    let circuit = if registry::build(target).is_some() {
        CircuitSource::Registry(target.to_owned())
    } else {
        let format = opts
            .format
            .or_else(|| {
                let ext = std::path::Path::new(target).extension()?.to_str()?;
                SourceFormat::from_label(ext)
            })
            .unwrap_or_else(|| {
                eprintln!(
                    "`{target}` is not a registry circuit and its format is not recognizable \
                     from the extension; pass --format bench|blif|snl|verilog|vhdl"
                );
                std::process::exit(2);
            });
        let source = std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("cannot read {target}: {e}");
            std::process::exit(1);
        });
        CircuitSource::Inline { format, source }
    };
    let spec = JobSpec {
        circuit,
        vectors: opts.vectors,
        seed: opts.seed,
        sample: opts.sample,
        trace_policy: opts.trace_policy,
        collapse: opts.collapse,
        threads: opts.threads.unwrap_or(1),
        round: opts.checkpoint_every,
    };
    let mut client = connect_client(opts);
    let id = client_ok(client.submit(&spec));
    eprintln!("submitted {target} as {id}");
    if opts.wait {
        let snapshot = client_ok(client.wait(&id, Duration::from_secs(3600)));
        println!("{}", snapshot.to_line());
        let state = snapshot.get("state").and_then(seugrade_serve::json::Value::as_str);
        if state != Some("done") {
            std::process::exit(1);
        }
    } else {
        println!("{id}");
    }
}

/// The `status` subcommand: one job's snapshot, or every job's. With
/// `--wait`, block until the named job reaches a terminal state and
/// exit 1 unless that state is `done`.
fn run_status(job: Option<&str>, opts: &Options) {
    let mut client = connect_client(opts);
    match job {
        Some(id) if opts.wait => {
            let snapshot = client_ok(client.wait(id, Duration::from_secs(3600)));
            println!("{}", snapshot.to_line());
            let state = snapshot.get("state").and_then(seugrade_serve::json::Value::as_str);
            if state != Some("done") {
                std::process::exit(1);
            }
        }
        Some(id) => println!("{}", client_ok(client.status(id)).to_line()),
        None => {
            for snapshot in client_ok(client.list()) {
                println!("{}", snapshot.to_line());
            }
        }
    }
}

/// The `cancel` subcommand: cooperative cancellation; the job's spooled
/// checkpoint survives, so a protocol `resume` can continue it later.
fn run_cancel(job: &str, opts: &Options) {
    let mut client = connect_client(opts);
    let v = client_ok(client.cancel(job));
    println!("{}", v.to_line());
}

/// Resolves a grade/resume target: bundled registry name first, external
/// netlist file otherwise. Load failures exit 1 with the importer's
/// line-numbered message.
fn load_circuit(target: &str, format: Option<SourceFormat>) -> Netlist {
    if let Some(circuit) = registry::build(target) {
        eprintln!("registry circuit `{target}`");
        circuit
    } else {
        let imported = import::import_path_with(target, format, ImportOptions::default())
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
        eprintln!("{}", imported.stats);
        imported.netlist
    }
}

/// Everything `resume` needs to rebuild the campaign plan from the
/// checkpoint file alone (the fingerprint then cross-checks the result).
fn grade_meta(target: &str, opts: &Options) -> Vec<(String, String)> {
    let mut meta = vec![
        ("target".to_owned(), target.to_owned()),
        ("vectors".to_owned(), opts.vectors.to_string()),
        ("seed".to_owned(), opts.seed.to_string()),
    ];
    if let Some(format) = opts.format {
        meta.push(("format".to_owned(), format.label().to_owned()));
    }
    if let Some(count) = opts.sample {
        meta.push(("sample".to_owned(), count.to_string()));
    }
    meta
}

/// Parses a numeric metadata value out of a checkpoint, exiting with a
/// structured message when it is missing or malformed.
fn resume_meta_count(ck: &Checkpoint, key: &str) -> usize {
    let v = ck.meta_get(key).unwrap_or_else(|| {
        eprintln!("checkpoint has no `{key}` metadata; it was not written by `repro -- grade`");
        std::process::exit(1);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("checkpoint metadata `{key}` is not a number: `{v}`");
        std::process::exit(1);
    })
}

/// Prints the outcome of a resumable invocation: the full report when the
/// campaign finished, or the checkpoint cursor + exit 130 when it was
/// interrupted by Ctrl-C / SIGTERM (or a chunk limit).
fn finish_resumable(
    circuit: &Netlist,
    target: &str,
    engine: &Engine,
    sampled: bool,
    path: &str,
    run: &ResumableRun<StreamAccumulator>,
) {
    if run.resumed_from > 0 {
        eprintln!("resumed from chunk {}/{}", run.resumed_from, run.chunks_total);
    }
    if run.interrupted {
        eprintln!(
            "interrupted at chunk {}/{} ({}/{} faults); checkpoint written to {path}",
            run.chunks_done, run.chunks_total, run.faults_done, run.faults_total,
        );
        eprintln!("resume with: repro -- resume {path}");
        std::process::exit(EXIT_INTERRUPTED);
    }
    print_streamed_report(
        circuit,
        target,
        engine,
        sampled,
        run.sink.summary(),
        &run.stats,
        run.sink.digest(),
    );
}

/// One report line per fault class: count and percentage, plus the
/// 95 % Wilson interval of the percentage when the run graded a
/// `sampled` subset (an empty summary has no interval).
fn class_lines(summary: &GradingSummary, sampled: bool) -> Vec<String> {
    let estimates = (sampled && summary.total() > 0).then(|| estimate_classes(summary));
    FaultClass::ALL
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let line = format!(
                "  {:<8} {:>8}  ({:.1}%)",
                class.label(),
                summary.count(*class),
                summary.percent(*class)
            );
            match &estimates {
                Some(e) => format!("{line}  95% CI [{:.1}%, {:.1}%]", e[i].low, e[i].high),
                None => line,
            }
        })
        .collect()
}

/// The shared grade/resume report: per-class breakdown (with Wilson
/// intervals for a `sampled` run), engine stats, golden-trace memory
/// and the order-independent verdict digest.
fn print_streamed_report(
    circuit: &Netlist,
    target: &str,
    engine: &Engine,
    sampled: bool,
    summary: &GradingSummary,
    stats: &EngineStats,
    digest: u64,
) {
    println!("{} ({})", circuit.name(), target);
    for line in class_lines(summary, sampled) {
        println!("{line}");
    }
    println!("  {:<8} {:>8}", "total", summary.total());
    println!("{stats}");
    let golden = engine.grader().golden();
    let dense_bits = golden.dense_equivalent_bits();
    println!(
        "golden trace: {} bits held ({}), {} bits dense equivalent (x{:.1} smaller), verdict digest {:#018x}",
        golden.stored_bits(),
        golden.policy(),
        dense_bits,
        dense_bits as f64 / golden.stored_bits().max(1) as f64,
        digest,
    );
}

/// Set by the signal handler; bridged to a [`CancelToken`] by a watcher
/// thread (signal handlers must only touch async-signal-safe state).
static INTERRUPT_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn note_interrupt(_signum: i32) {
    INTERRUPT_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers (via libc's `signal`, which std
/// already links — no external crates) and returns a [`CancelToken`]
/// that a watcher thread trips once a signal lands. The engine observes
/// the token at chunk boundaries, drains in-flight work, writes a final
/// checkpoint and returns with `interrupted = true`.
fn signal_cancel_token() -> CancelToken {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `note_interrupt` only stores to a static atomic, which is
    // async-signal-safe; `signal` is the C standard library's own entry
    // point and both signal numbers are valid on Linux.
    unsafe {
        signal(SIGINT, note_interrupt as extern "C" fn(i32) as usize);
        signal(SIGTERM, note_interrupt as extern "C" fn(i32) as usize);
    }
    let token = CancelToken::new();
    let watched = token.clone();
    std::thread::spawn(move || loop {
        if INTERRUPT_FLAG.load(Ordering::SeqCst) {
            eprintln!("signal received; draining in-flight chunks...");
            watched.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    token
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lines_add_wilson_intervals_to_sampled_runs_only() {
        let summary = GradingSummary::from_counts(20, 30, 50);
        let exhaustive = class_lines(&summary, false);
        assert_eq!(exhaustive.len(), FaultClass::ALL.len());
        assert!(exhaustive.iter().all(|l| !l.contains("CI")), "{exhaustive:?}");
        let sampled = class_lines(&summary, true);
        for (class, (line, plain)) in FaultClass::ALL.iter().zip(sampled.iter().zip(&exhaustive)) {
            let e = estimate_classes(&summary).into_iter().find(|e| e.class == *class).unwrap();
            assert_eq!(*line, format!("{plain}  95% CI [{:.1}%, {:.1}%]", e.low, e.high));
        }
        // 20 of 100: the Wilson 95 % interval is 13.3 % .. 28.9 %.
        let failure = FaultClass::ALL.iter().position(|c| *c == FaultClass::Failure).unwrap();
        let line = &sampled[failure];
        assert!(line.ends_with("(20.0%)  95% CI [13.3%, 28.9%]"), "{line}");
        // An empty sample prints no interval instead of panicking.
        let empty = class_lines(&GradingSummary::new(), true);
        assert!(empty.iter().all(|l| !l.contains("CI")), "{empty:?}");
    }
}
