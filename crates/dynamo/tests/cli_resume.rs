//! `dynamo-sim --resume` of a checkpoint written at an older format
//! version: the binary exits 2 with a one-line typed error naming both
//! versions, never a panic.

use std::process::Command;

const SIM: &str = env!("CARGO_BIN_EXE_dynamo-sim");
const KIND: &str = "dynamo-sim.Checkpoint";

#[test]
fn resuming_an_old_version_checkpoint_exits_2_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("dynamo-sim-old-cp-{}", std::process::id()));
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

    // A section opens with the magic (u32), the kind (u64 length, then
    // its bytes) and the version (u32): rewrite the version to 5, the
    // format that still stored drawn power, demand and the leaf
    // partials.
    let mut bytes = std::fs::read(dir.join("checkpoint-00001.snap")).unwrap();
    let at = 4 + 8 + KIND.len();
    assert_eq!(&bytes[12..at], KIND.as_bytes());
    assert_eq!(bytes[at..at + 4], 6u32.to_le_bytes(), "current version");
    bytes[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
    let old = dir.join("checkpoint-v5.snap");
    std::fs::write(&old, &bytes).unwrap();

    let resumed = Command::new(SIM)
        .arg("--resume")
        .arg(&old)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: ")
            && stderr.contains(KIND)
            && stderr.contains("version 5 but this build supports version 6"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
