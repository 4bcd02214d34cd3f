//! What the benchmark records about the machine and the build it ran on.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// Cores the process may use (`available_parallelism`, 1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process so far, in MB; `0.0`
/// where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Where the trace and result files go: `dynbench-out/` beside the
/// executable, so everything written lands inside the (ignored) build
/// directory.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("dynbench"));
    let dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("dynbench-out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// The keys of a `[profile.release]` table that change generated code,
/// as `key = value` lines in file order. Debug info is left out: it
/// changes what is written beside the code, not the code.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("debug"))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The release profile this binary was built with (this package's own
/// manifest, read at compile time).
pub fn own_release_profile() -> Vec<String> {
    release_profile(include_str!("../Cargo.toml"))
}

/// The repository's release profile, from `Cargo.toml` in the working
/// directory; `None` when the benchmark is not run from the repo root.
pub fn root_release_profile() -> Option<Vec<String>> {
    let manifest = std::fs::read_to_string("Cargo.toml").ok()?;
    manifest
        .contains("name = \"dynamo-repro\"")
        .then(|| release_profile(&manifest))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block every result file carries.
pub fn host_block(worker_threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        ("host_parallelism", Json::Int(nproc() as i64)),
        (
            "worker_threads_site_worst_case",
            Json::Int(worker_threads as i64),
        ),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "release_profile",
            Json::Arr(own_release_profile().into_iter().map(Json::Str).collect()),
        ),
        (
            "release_profile_matches_root",
            match root_release_profile() {
                Some(root) => Json::Bool(root == own_release_profile()),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tdynbench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn release_profile_keeps_codegen_keys_only() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.bench]\ndebug = true\n\n\
                        [profile.release]\ndebug = true\n# why\nlto   = \"thin\"\n\
                        codegen-units = 1\n\n[other]\nlto = \"fat\"\n";
        assert_eq!(
            release_profile(manifest),
            vec![
                "lto = \"thin\"".to_string(),
                "codegen-units = 1".to_string()
            ]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    /// The repository's profile is repeated in this package's manifest;
    /// this is the test that notices when they drift apart.
    #[test]
    fn own_profile_matches_the_repository_root() {
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("the repository's Cargo.toml");
        assert_eq!(release_profile(&root), own_release_profile());
        assert!(!own_release_profile().is_empty());
    }
}
