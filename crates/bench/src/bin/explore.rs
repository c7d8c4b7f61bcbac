//! `explore` — schedule/fault exploration harness (mini model checker).
//!
//! Seed-samples perturbations of every engine don't-care point (runnable
//! node tie-breaks, same-time event application order across nodes, forced
//! fast-path detours) over a fixed set of small workloads, and checks the
//! invariants that must hold under ANY legal schedule: byte-identical
//! reports (fault-free, and for the event-tie class under faults),
//! application-checksum identity, zero allocations on the short-message
//! path, and replay fidelity of recorded decision traces. Failing
//! perturbations are shrunk to minimal traces and written as corpus JSON
//! entries.
//!
//! The process installs the counting `#[global_allocator]` so the
//! alloc-probed configuration can count every node's and the engine's
//! allocations over its steady-state window, on either task host.

use mpmd_bench::explore::{pin_corpus, sweep, SweepOptions};
use mpmd_bench::fmt::{reject_unknown_args, take_json_flag, take_switch, usage_error, write_json};
use mpmd_bench::runner::take_jobs_flag;
use mpmd_sim::CountingAlloc;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "explore [--quick] [--seeds N] [--corpus-dir DIR] \
                     [--pin-corpus DIR] [-j N] [--json <path>]";

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Parse `--seeds N` / `--seeds=N`.
fn take_seeds_flag(args: Vec<String>) -> (Vec<String>, Option<usize>) {
    let mut rest = Vec::new();
    let mut seeds = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--seeds" {
            let v = it
                .next()
                .unwrap_or_else(|| usage_error("--seeds requires a value", USAGE));
            seeds = Some(parse_seeds(&v));
        } else if let Some(v) = a.strip_prefix("--seeds=") {
            seeds = Some(parse_seeds(v));
        } else {
            rest.push(a);
        }
    }
    (rest, seeds)
}

fn parse_seeds(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error("--seeds takes a positive integer", USAGE),
    }
}

/// Parse `--NAME DIR` / `--NAME=DIR` for a path-valued flag.
fn take_path_flag(args: Vec<String>, name: &str) -> (Vec<String>, Option<PathBuf>) {
    let mut rest = Vec::new();
    let mut dir = None;
    let prefix = format!("{name}=");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == name {
            let v = it
                .next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value"), USAGE));
            dir = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix(&prefix) {
            dir = Some(PathBuf::from(v));
        } else {
            rest.push(a);
        }
    }
    (rest, dir)
}

fn main() {
    // Fail fast on a stale MPMD_SIM_BACKEND instead of panicking mid-sweep.
    let backend = mpmd_sim::backend_from_env().unwrap_or_else(|e| usage_error(&e, USAGE));

    let (args, json_path) = take_json_flag(std::env::args().skip(1));
    let (args, jobs) = take_jobs_flag(args.into_iter());
    let (args, quick) = take_switch(args, "--quick");
    let (args, seeds) = take_seeds_flag(args);
    let (args, corpus_dir) = take_path_flag(args, "--corpus-dir");
    let (args, pin_dir) = take_path_flag(args, "--pin-corpus");
    reject_unknown_args(&args, USAGE);

    // Regenerate the pinned-schedule corpus (known-good recorded traces
    // that `bench/tests/explore_corpus.rs` replays) and exit.
    if let Some(dir) = pin_dir {
        std::fs::create_dir_all(&dir).expect("create pin dir");
        let entries = pin_corpus();
        for e in &entries {
            let path = dir.join(format!("{}-seed{}.json", e.config, e.spec.seed));
            write_json(&path, &e.corpus_json());
            println!("pinned {} ({} decisions)", path.display(), e.trace.len());
        }
        println!("{} pinned schedules written", entries.len());
        return;
    }

    // 5 configs × 2 classes: quick = 50 seeds/class → 500+ perturbations,
    // well past the 500 the size check below requires and comfortably
    // inside CI's 60 s budget.
    let seeds_per_class = seeds.unwrap_or(if quick { 50 } else { 150 });
    let opts = SweepOptions {
        seeds_per_class,
        jobs,
        replay_every: 16,
    };

    println!(
        "exploring {} seeded perturbations per class per config ({} workers)",
        seeds_per_class, opts.jobs
    );
    let start = Instant::now();
    let summary = sweep(&opts, true, |line| println!("  {line}"));
    let elapsed = start.elapsed();

    println!(
        "{} configurations, {} perturbations, {} replay checks in {:.1}s",
        summary.configs,
        summary.perturbations,
        summary.replays,
        elapsed.as_secs_f64()
    );

    if let Some(dir) = &corpus_dir {
        if !summary.violations.is_empty() {
            std::fs::create_dir_all(dir).expect("create corpus dir");
        }
        for (i, v) in summary.violations.iter().enumerate() {
            let path = dir.join(format!("{}-{}-{i}.json", v.config, v.spec.seed));
            write_json(&path, &v.corpus_json());
        }
    }

    if let Some(path) = &json_path {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("table".to_string(), "explore".to_value());
        m.insert("configs".to_string(), (summary.configs as u64).to_value());
        m.insert(
            "perturbations".to_string(),
            (summary.perturbations as u64).to_value(),
        );
        m.insert("replays".to_string(), (summary.replays as u64).to_value());
        m.insert("elapsed_secs".to_string(), elapsed.as_secs_f64().to_value());
        m.insert(
            "violations".to_string(),
            serde_json::Value::Array(summary.violations.iter().map(|v| v.corpus_json()).collect()),
        );
        write_json(path, &serde_json::Value::Object(m));
    }

    // The default seed counts are sized to cover this much (an explicit
    // `--seeds` is the caller's choice); a sweep that silently shrank would
    // otherwise still report zero violations.
    if seeds.is_none() && (summary.perturbations < 500 || summary.configs < 3) {
        eprintln!(
            "sweep too small: {} perturbations over {} configurations (need 500 / 3)",
            summary.perturbations, summary.configs
        );
        std::process::exit(1);
    }
    if summary.violations.is_empty() {
        println!("zero invariant violations");
    } else {
        eprintln!("{} INVARIANT VIOLATIONS:", summary.violations.len());
        for v in &summary.violations {
            eprintln!(
                "  [{}] {} ({} backend, seed {}): {} (shrunk trace: {:?})",
                v.kind,
                v.config,
                backend.name(),
                v.spec.seed,
                v.detail,
                v.trace
            );
        }
        std::process::exit(1);
    }
}
