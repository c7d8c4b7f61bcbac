//! Host fingerprint and process memory.
//!
//! Wall-clock numbers mean nothing without the machine they came from, so
//! every output carries this fingerprint and the comparison mode refuses to
//! compare sets whose fingerprints differ.

use mpmd_fabric::WaitPolicy;
use serde_json::{to_value, Map, Value};
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Start a new peak: writing 5 to `clear_refs` resets `VmHWM` to the current
/// resident size (Linux 4.0+). Where the kernel refuses, peaks accumulate.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The keys that must match before two result sets may be compared.
pub const IDENTITY_KEYS: [&str; 7] = [
    "nproc",
    "cpu_model",
    "governor",
    "kernel",
    "rustc",
    "wait_policy",
    "sim_backend",
];

/// Machine, toolchain and configuration identity of this run.
pub fn fingerprint() -> Map {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "unreadable".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // A benchmark checkout need not be a git repository.
    let commit =
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let wait = WaitPolicy::auto_for(nproc());
    // What `Sim::new` resolves `BackendKind::Auto` to on this target.
    let sim_backend = match mpmd_sim::backend_from_env() {
        Ok(mpmd_sim::BackendKind::Threads) => "threads",
        Ok(mpmd_sim::BackendKind::Fibers) => "fibers",
        _ if cfg!(all(target_arch = "x86_64", unix)) => "fibers",
        _ => "threads",
    };
    let mut m = Map::new();
    m.insert("nproc".into(), to_value(&nproc()));
    m.insert("cpu_model".into(), to_value(&cpu_model));
    m.insert("governor".into(), to_value(&governor));
    m.insert("kernel".into(), to_value(&kernel));
    m.insert("rustc".into(), to_value(&rustc));
    m.insert("git_commit".into(), to_value(&commit));
    m.insert(
        "wait_policy".into(),
        to_value(&format!(
            "spin={} yields={} park_initial_ns={} park_max_ns={}",
            wait.spin, wait.yields, wait.park_initial, wait.park_max
        )),
    );
    m.insert("sim_backend".into(), to_value(&sim_backend));
    m
}

/// The first identity key on which two fingerprints disagree.
pub fn mismatch(a: &Value, b: &Value) -> Option<String> {
    IDENTITY_KEYS.iter().find_map(|k| {
        let (x, y) = (a.get(*k), b.get(*k));
        (x != y).then(|| format!("{k}: {x:?} vs {y:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_every_identity_key() {
        let f = Value::Object(fingerprint());
        for k in IDENTITY_KEYS {
            assert!(f.get(k).is_some(), "missing {k}");
        }
        assert_eq!(mismatch(&f, &f), None);
    }

    #[test]
    fn differing_hosts_are_named() {
        let a = Value::Object(fingerprint());
        let mut other = fingerprint();
        other.insert("nproc".into(), to_value(&999u64));
        let why = mismatch(&a, &Value::Object(other)).unwrap();
        assert!(why.starts_with("nproc"), "{why}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
