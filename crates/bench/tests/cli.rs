//! Strict CLI argument handling, uniform across every experiment binary:
//! unknown flags and a pathless `--json` must fail loudly with a usage line
//! and a non-zero exit instead of silently running a default configuration.

use std::process::Command;

/// Every experiment binary in this crate.
const BINS: &[(&str, &str)] = &[
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("claims", env!("CARGO_BIN_EXE_claims")),
    ("explore", env!("CARGO_BIN_EXE_explore")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("msgprofile", env!("CARGO_BIN_EXE_msgprofile")),
    ("nexus_cmp", env!("CARGO_BIN_EXE_nexus_cmp")),
    ("scaling", env!("CARGO_BIN_EXE_scaling")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
];

#[test]
fn unknown_flags_are_rejected_by_every_binary() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--frobnicate")
            .output()
            .unwrap_or_else(|e| panic!("running {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} accepted an unknown flag"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{name} printed no usage: {err}");
        assert!(
            err.contains("--frobnicate"),
            "{name} did not name the bad flag: {err}"
        );
    }
}

#[test]
fn pathless_json_is_rejected_by_every_binary() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--json")
            .output()
            .unwrap_or_else(|e| panic!("running {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} accepted a pathless --json"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{name} printed no usage: {err}");
    }
}

/// An unrecognized `MPMD_SIM_BACKEND` value must fail fast with an error
/// naming the valid backends — not silently fall back to a default (the
/// pre-fix behavior, which made backend typos unfalsifiable in CI).
#[test]
fn bogus_backend_env_is_rejected_with_valid_values_listed() {
    let exe = env!("CARGO_BIN_EXE_explore");
    let out = Command::new(exe)
        .env("MPMD_SIM_BACKEND", "bogus")
        .args(["--quick", "--seeds", "1"])
        .output()
        .expect("running explore");
    assert_eq!(
        out.status.code(),
        Some(2),
        "explore ran despite MPMD_SIM_BACKEND=bogus"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("bogus"),
        "error does not echo the bad value: {err}"
    );
    assert!(
        err.contains("threads") && err.contains("fibers"),
        "error does not list the valid backends: {err}"
    );
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("running {name}: {e}"));
        assert_eq!(out.status.code(), Some(0), "{name} --help failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage:"), "{name} --help: {text}");
    }
}
