//! Crash consistency of the daemon's spool: `repro serve` killed with
//! SIGKILL in the middle of a job — no drain, no final checkpoint —
//! restarts on the same spool and finishes the job from its last
//! checkpoint to the digest of the same spec graded solo.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use seugrade_serve::json::Value;
use seugrade_serve::proto::digest_hex;
use seugrade_serve::{reference_run, Client, JobSpec};

/// A `repro serve` process on an ephemeral port over `spool`, and the
/// address it listens on. Its stderr is drained on a thread, so the
/// daemon never blocks on (or fails) a write.
fn start_daemon(spool: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--spool"])
        .arg(spool)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start daemon");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            // "seugrade-serve listening on <addr> (...)"
            if let Some(rest) = line.strip_prefix("seugrade-serve listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default().to_owned();
                let _ = tx.send(addr);
            }
        }
    });
    let addr = rx.recv_timeout(Duration::from_secs(60)).expect("daemon announces its address");
    (child, addr)
}

/// SIGKILL: the daemon gets no chance to drain or checkpoint.
fn kill(mut child: Child) {
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");
}

#[test]
fn a_daemon_killed_mid_job_resumes_to_the_solo_digest() {
    // Sampled s5378g in one-chunk rounds: every round rewrites the
    // checkpoint, and the job has hundreds of rounds.
    let mut spec = JobSpec::registry("s5378g");
    spec.vectors = 128;
    spec.sample = Some(32768);
    spec.round = 1;
    let (reference, _) = reference_run(&spec).expect("solo reference");

    let spool: PathBuf =
        std::env::temp_dir().join(format!("seugrade-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let (daemon, addr) = start_daemon(&spool);
    let id = Client::connect(addr.as_str()).expect("connect").submit(&spec).expect("submit");
    let job_dir = spool.join(&id);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !job_dir.join("job.ckpt").exists() {
        assert!(Instant::now() < deadline, "no checkpoint within two minutes");
        std::thread::sleep(Duration::from_millis(1));
    }
    kill(daemon);
    assert!(
        !job_dir.join("result.json").exists(),
        "the job finished before the kill; the test proves nothing"
    );

    let (daemon, addr) = start_daemon(&spool);
    let mut client = Client::connect(addr.as_str()).expect("reconnect");
    let snapshot = client.wait(&id, Duration::from_secs(300)).expect("job finishes");
    kill(daemon);
    let _ = std::fs::remove_dir_all(&spool);
    assert_eq!(snapshot.get("state").and_then(Value::as_str), Some("done"), "{snapshot:?}");
    assert_eq!(
        snapshot.get("digest").and_then(Value::as_str),
        Some(digest_hex(reference).as_str()),
        "resumed-after-SIGKILL digest diverged from the solo run"
    );
}
