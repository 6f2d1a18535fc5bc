//! The multi-tenant determinism contract of `seugrade-serve`: a
//! campaign graded through the daemon — any number of co-tenant jobs on
//! one shared worker pool, any cancel/resume interruption, any daemon
//! restart mid-flight — produces a verdict digest **bit-identical** to
//! the same spec graded solo through the engine.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use seugrade_serve::json::{self, Value};
use seugrade_serve::{reference_run, Client, JobSpec, Server, ServerConfig};

/// An in-process daemon on an ephemeral port with a fresh temp spool.
fn daemon(tag: &str, workers: usize) -> (Server, std::path::PathBuf) {
    let spool = std::env::temp_dir()
        .join(format!("seugrade-serve-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        spool: spool.clone(),
    };
    (Server::bind(&config).expect("bind daemon"), spool)
}

fn small_spec() -> JobSpec {
    let mut spec = JobSpec::registry("s27");
    spec.vectors = 24;
    spec.round = 4;
    spec
}

fn digest_of(snapshot: &Value) -> String {
    snapshot
        .get("digest")
        .and_then(Value::as_str)
        .expect("terminal done snapshot carries a digest")
        .to_owned()
}

#[test]
fn sixteen_concurrent_jobs_reproduce_the_solo_digest() {
    let spec = small_spec();
    let (reference, summary) = reference_run(&spec).expect("solo reference");
    let expected = seugrade_serve::proto::digest_hex(reference);

    let (server, spool) = daemon("sixteen", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ids: Vec<String> =
        (0..16).map(|_| client.submit(&spec).expect("submit")).collect();
    for id in &ids {
        let snapshot = client.wait(id, Duration::from_secs(120)).expect("job finishes");
        assert_eq!(
            snapshot.get("state").and_then(Value::as_str),
            Some("done"),
            "{id}: {snapshot:?}"
        );
        assert_eq!(digest_of(&snapshot), expected, "{id} diverged from the solo run");
        // The tallies must match too — the digest is not the only
        // observable the protocol reports.
        assert_eq!(
            snapshot.get("failures").and_then(Value::as_usize),
            Some(summary.count(seugrade::FaultClass::Failure)),
            "{id} failure tally diverged"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_daemon_restart_mid_campaign_resumes_to_the_reference_digest() {
    // Enough chunks (120 cycles at round 2) that the daemon stops with
    // the job mid-flight.
    let mut spec = JobSpec::registry("s27");
    spec.vectors = 120;
    spec.round = 2;
    let (reference, _) = reference_run(&spec).expect("solo reference");
    let expected = seugrade_serve::proto::digest_hex(reference);

    let (mut server, spool) = daemon("restart", 1);
    let addr = server.local_addr();
    let id = {
        let mut client = Client::connect(addr).expect("connect");
        client.submit(&spec).expect("submit")
    };
    // Let at least one round land, then stop the daemon with the job
    // incomplete — a graceful stop drains the round and checkpoints.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    drop(server);
    assert!(
        spool.join(&id).join("job.ckpt").exists()
            || !spool.join(&id).join("result.json").exists(),
        "stopping must leave either a checkpoint or no result, never a torn state"
    );

    // Second daemon life on the same spool: the scan re-enqueues the
    // incomplete job and it resumes from its checkpoint cursor.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        spool: spool.clone(),
    };
    let server = Server::bind(&config).expect("restart daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let snapshot = client.wait(&id, Duration::from_secs(120)).expect("job finishes");
    assert_eq!(snapshot.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        digest_of(&snapshot),
        expected,
        "resumed-across-restart digest diverged from the uninterrupted solo run"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn cancel_then_protocol_resume_reproduces_the_reference_digest() {
    let mut spec = JobSpec::registry("s27");
    spec.vectors = 120;
    spec.round = 2;
    let (reference, _) = reference_run(&spec).expect("solo reference");
    let expected = seugrade_serve::proto::digest_hex(reference);

    let (server, spool) = daemon("cancel", 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let id = client.submit(&spec).expect("submit");
    std::thread::sleep(Duration::from_millis(30));
    match client.cancel(&id) {
        Ok(_) => {
            // Cooperative: the in-flight round drains first.
            let snapshot =
                client.wait(&id, Duration::from_secs(60)).expect("cancel lands");
            let state = snapshot.get("state").and_then(Value::as_str).map(str::to_owned);
            if state.as_deref() == Some("cancelled") {
                client.resume(&id).expect("resume accepted");
            } // else: the job finished before the cancel drained — fine.
        }
        // The job outran the cancel entirely: a terminal job rejects
        // cancellation with a structured error, which is also fine.
        Err(seugrade_serve::ClientError::Server { .. }) => {}
        Err(e) => panic!("cancel failed unexpectedly: {e}"),
    }
    let snapshot = client.wait(&id, Duration::from_secs(120)).expect("job finishes");
    assert_eq!(snapshot.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(digest_of(&snapshot), expected, "cancel/resume digest diverged");
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn streamed_events_end_with_the_reference_terminal_event() {
    let spec = small_spec();
    let (reference, _) = reference_run(&spec).expect("solo reference");
    let expected = seugrade_serve::proto::digest_hex(reference);

    let (server, spool) = daemon("stream", 2);
    let mut submitter = Client::connect(server.local_addr()).expect("connect");
    let id = submitter.submit(&spec).expect("submit");
    let mut streamer = Client::connect(server.local_addr()).expect("connect streamer");
    let mut chunks = 0usize;
    let terminal = streamer
        .stream(&id, |ev| {
            if ev.get("event").and_then(Value::as_str) == Some("chunk") {
                chunks += 1;
            }
        })
        .expect("stream ends at the terminal event");
    assert_eq!(terminal.get("event").and_then(Value::as_str), Some("done"));
    assert_eq!(
        terminal.get("digest").and_then(Value::as_str),
        Some(expected.as_str()),
        "terminal event digest diverged"
    );
    // A late subscriber to a terminal job gets the synthesized replay.
    let mut late = Client::connect(server.local_addr()).expect("late subscriber");
    let replay = late.stream(&id, |_| {}).expect("replayed terminal event");
    assert_eq!(replay.get("digest").and_then(Value::as_str), Some(expected.as_str()));
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A `stream` connection read line by line. The daemon subscribes before
/// it acknowledges, so once [`open`](Self::open) returns no event line
/// of the job can be missed.
struct EventStream(BufReader<TcpStream>);

impl EventStream {
    fn open(addr: SocketAddr, id: &str) -> Self {
        let mut stream = TcpStream::connect(addr).expect("connect streamer");
        writeln!(stream, r#"{{"cmd":"stream","job":"{id}"}}"#).expect("send stream request");
        let mut events = EventStream(BufReader::new(stream));
        let ack = events.next();
        assert_eq!(ack.get("streaming").and_then(Value::as_str), Some(id), "{ack:?}");
        events
    }

    fn next(&mut self) -> Value {
        let mut line = String::new();
        assert!(self.0.read_line(&mut line).expect("read event") > 0, "stream closed early");
        json::parse(line.trim_end()).expect("event lines are JSON")
    }
}

/// Reads `id`'s events up to the terminal one, which it returns. Every
/// chunk line must name a shard not in `shards` yet; it is added. Each
/// `state` line is passed to `on_state`. On `done`, the job's
/// `result.json` must already be on disk, parse, and carry `wall_ns`
/// and the streamed digest.
fn read_to_terminal(
    events: &mut EventStream,
    spool: &Path,
    id: &str,
    shards: &mut BTreeSet<usize>,
    mut on_state: impl FnMut(&Value),
) -> Value {
    loop {
        let ev = events.next();
        match ev.get("event").and_then(Value::as_str) {
            Some("chunk") => {
                let shard = ev.get("shard").and_then(Value::as_usize).expect("chunk shard");
                assert!(shards.insert(shard), "{id}: chunk {shard} handed over twice");
            }
            Some("state") => on_state(&ev),
            Some("done") => {
                let text = std::fs::read_to_string(spool.join(id).join("result.json"))
                    .expect("result.json is written before the done event");
                let result = json::parse(&text).expect("result.json parses");
                assert!(result.get("wall_ns").and_then(Value::as_u64).is_some(), "{text}");
                assert_eq!(result.get("digest"), ev.get("digest"), "{text}");
                return ev;
            }
            Some("cancelled" | "failed") => return ev,
            other => panic!("{id}: unexpected event {other:?}: {ev:?}"),
        }
    }
}

/// A job whose 512-chunk rounds keep the daemon's only worker busy
/// while a test subscribes to another job; tests cancel it once they no
/// longer need it.
fn blocker_spec() -> JobSpec {
    let mut spec = JobSpec::registry("s5378g");
    spec.vectors = 1024;
    spec.sample = Some(65_536);
    spec.round = 512;
    spec
}

/// Submits the blocker and waits until a worker grades it.
fn start_blocker(client: &mut Client) -> String {
    let id = client.submit(&blocker_spec()).expect("submit blocker");
    while client.status(&id).expect("status").get("state").and_then(Value::as_str)
        == Some("queued")
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    id
}

#[test]
fn a_streamed_job_hands_over_each_chunk_once_and_writes_its_result_before_done() {
    let spec = small_spec();
    let (reference, _) = reference_run(&spec).expect("solo reference");
    let (server, spool) = daemon("handover", 1);
    let mut control = Client::connect(server.local_addr()).expect("connect");
    let blocker = start_blocker(&mut control);
    let id = control.submit(&spec).expect("submit");
    let mut events = EventStream::open(server.local_addr(), &id);
    control.cancel(&blocker).expect("cancel the blocker");

    let mut shards = BTreeSet::new();
    let mut states = 0;
    let done = read_to_terminal(&mut events, &spool, &id, &mut shards, |_| states += 1);
    assert_eq!(done.get("event").and_then(Value::as_str), Some("done"), "{done:?}");
    assert_eq!(
        done.get("digest").and_then(Value::as_str),
        Some(seugrade_serve::proto::digest_hex(reference).as_str())
    );
    let snapshot = control.status(&id).expect("status");
    let count = |key: &str| snapshot.get(key).and_then(Value::as_usize).expect(key);
    assert!(count("rounds") >= 2, "the job must span several rounds: {snapshot:?}");
    assert_eq!(shards, (0..count("chunks_total")).collect(), "every chunk, once");
    assert_eq!(states, count("rounds") - 1, "one state line between rounds");
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_job_cancelled_mid_stream_and_resumed_hands_over_each_chunk_once() {
    let spec = small_spec();
    let (reference, _) = reference_run(&spec).expect("solo reference");
    let (server, spool) = daemon("handover-resume", 1);
    let mut control = Client::connect(server.local_addr()).expect("connect");
    let blocker = start_blocker(&mut control);
    let id = control.submit(&spec).expect("submit");

    // The job grades one round after the blocker's first and then
    // waits behind its second: cancel it there.
    let mut events = EventStream::open(server.local_addr(), &id);
    let mut shards = BTreeSet::new();
    let mut cancelled = false;
    let first = read_to_terminal(&mut events, &spool, &id, &mut shards, |_| {
        if !cancelled {
            control.cancel(&id).expect("cancel mid-stream");
            cancelled = true;
        }
    });
    assert_eq!(first.get("event").and_then(Value::as_str), Some("cancelled"), "{first:?}");
    assert!(!shards.is_empty(), "a round landed before the cancel");

    control.resume(&id).expect("resume");
    let mut events = EventStream::open(server.local_addr(), &id);
    control.cancel(&blocker).expect("cancel the blocker");
    let done = read_to_terminal(&mut events, &spool, &id, &mut shards, |_| {});
    assert_eq!(done.get("event").and_then(Value::as_str), Some("done"), "{done:?}");
    assert_eq!(
        done.get("digest").and_then(Value::as_str),
        Some(seugrade_serve::proto::digest_hex(reference).as_str())
    );
    let total = control.status(&id).expect("status").get("chunks_total").and_then(Value::as_usize);
    assert_eq!(shards, (0..total.expect("chunks_total")).collect(), "every chunk, once");
    drop(server);
    let _ = std::fs::remove_dir_all(&spool);
}
