//! The `repro` binary rejects the retired `dense` trace policy with a
//! typed exit, on the command line and in a checkpoint it resumes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// FNV-1a 64, the checkpoint trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn dense_trace_policy_flag_exits_2() {
    let out = repro(&["grade", "s27", "--trace-policy", "dense"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("expects checkpoint:<K>"), "{}", stderr(&out));
}

#[test]
fn resuming_a_dense_checkpoint_exits_with_unknown_trace_policy() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("seugrade-cli-dense-{}.ckpt", std::process::id()));
    let path_str = path.to_str().expect("UTF-8 temp path");
    let out = repro(&["grade", "s27", "--vectors", "8", "--checkpoint", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Relabel the checkpoint as an older build would have written it
    // under `--trace-policy dense`, with a matching checksum.
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let body: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with("end "))
        .map(|l| match l.strip_prefix("trace-policy ") {
            Some(_) => "trace-policy dense".to_owned(),
            None => l.to_owned(),
        })
        .collect();
    let body = body.join("\n");
    std::fs::write(&path, format!("{body}\nend {:016x}\n", fnv1a(body.as_bytes())))
        .expect("rewrite checkpoint");
    let out = repro(&["resume", path_str]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown trace policy `dense`"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}
