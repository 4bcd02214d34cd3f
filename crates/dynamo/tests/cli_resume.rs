//! `dynamo-sim --resume` of a checkpoint written at an older format
//! version — of the checkpoint, or of the datacenter state it holds:
//! the binary exits 2 with a one-line typed error naming the section
//! and both versions, never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

const SIM: &str = env!("CARGO_BIN_EXE_dynamo-sim");
const KIND: &str = "dynamo-sim.Checkpoint";
const STATE_KIND: &str = "dynamo.DatacenterState";

/// Writes a minute-1 checkpoint into a fresh directory named for
/// `case` and returns the directory and the checkpoint's bytes.
fn checkpoint(case: &str) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("dynamo-sim-{case}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = Command::new(SIM)
        .args("--rpps 1 --racks 1 --servers 4 --minutes 2".split(' '))
        .args("--checkpoint-every 1 --checkpoint-dir".split(' '))
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bytes = std::fs::read(dir.join("checkpoint-00001.snap")).unwrap();
    (dir, bytes)
}

/// Rewrites the version of the section of `kind` that opens at `at`
/// from `from` to `to`. A section opens with the magic (u32), the kind
/// (u64 length, then its bytes) and the version (u32).
fn set_version(bytes: &mut [u8], at: usize, kind: &str, from: u32, to: u32) {
    let v = at + 4 + 8 + kind.len();
    assert_eq!(&bytes[at + 12..v], kind.as_bytes());
    assert_eq!(bytes[v..v + 4], from.to_le_bytes(), "current version");
    bytes[v..v + 4].copy_from_slice(&to.to_le_bytes());
}

/// Resumes `bytes` from `dir` and expects exit 2 with an error naming
/// `kind` and `versions`.
fn assert_resume_refused(dir: &Path, bytes: &[u8], kind: &str, versions: &str) {
    let old = dir.join("checkpoint-old.snap");
    std::fs::write(&old, bytes).unwrap();
    let resumed = Command::new(SIM)
        .arg("--resume")
        .arg(&old)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(kind) && stderr.contains(versions),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// The checkpoint's own version at 6, the format that held the state's
/// body unframed.
#[test]
fn resuming_an_old_version_checkpoint_exits_2_with_a_typed_error() {
    let (dir, mut bytes) = checkpoint("old-cp");
    set_version(&mut bytes, 0, KIND, 7, 6);
    assert_resume_refused(
        &dir,
        &bytes,
        KIND,
        "version 6 but this build supports version 7",
    );
}

/// The state inside at 7, the format that still echoed each section's
/// configuration: the checkpoint's version is current, and the state's
/// own section refuses it.
#[test]
fn resuming_a_checkpoint_whose_state_is_an_older_version_exits_2() {
    let (dir, mut bytes) = checkpoint("old-state");
    let kind_at = (bytes.windows(STATE_KIND.len()))
        .position(|w| w == STATE_KIND.as_bytes())
        .expect("the state's section");
    set_version(&mut bytes, kind_at - 12, STATE_KIND, 8, 7);
    assert_resume_refused(
        &dir,
        &bytes,
        STATE_KIND,
        "version 7 but this build supports version 8",
    );
}
