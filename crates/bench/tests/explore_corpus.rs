//! Replays the checked-in schedule corpus (`crates/sim/tests/explore_corpus/`).
//!
//! Each corpus entry is a recorded decision trace from the exploration
//! harness (`explore --pin-corpus` regenerates them). Replaying an entry
//! re-runs its named configuration with a `TraceOracle` fed the pinned
//! trace and asserts the invariant class for that configuration against a
//! freshly computed unperturbed baseline: byte-identical report JSON for
//! fault-free configs, identical application checksum for faulty ones
//! (node-tie and slow-path perturbations legitimately permute the global
//! fault stream's draw order, so report bytes may differ there).
//!
//! The corpus lives under the sim crate's test tree because the schedules
//! it pins are *engine* schedules; the replay driver lives here because
//! the workloads are AM-level (the am crate sits above sim).

use mpmd_bench::explore::{configs, run_config, Config};
use mpmd_sim::{OracleSpec, TraceOracle};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sim/tests/explore_corpus")
}

struct Entry {
    file: String,
    config: Config,
    spec: OracleSpec,
    trace: Vec<u32>,
    kind: String,
}

fn load_corpus() -> Vec<Entry> {
    let dir = corpus_dir();
    let mut entries = Vec::new();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} unreadable: {e}", dir.display()))
        .map(|d| d.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    for path in names {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read corpus entry");
        let v: serde_json::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: invalid JSON: {e:?}"));
        let field = |k: &str| {
            v.get(k)
                .unwrap_or_else(|| panic!("{file}: missing field {k:?}"))
        };
        let config_name = field("config").as_str().expect("config is a string");
        let config = configs()
            .into_iter()
            .find(|c| c.name == config_name)
            .unwrap_or_else(|| panic!("{file}: unknown config {config_name:?}"));
        let spec = OracleSpec {
            seed: field("seed").as_u64().expect("seed"),
            node_ties: field("node_ties").as_bool().expect("node_ties"),
            event_ties: field("event_ties").as_bool().expect("event_ties"),
            slow_period: field("slow_period").as_u64().expect("slow_period") as u32,
        };
        let trace = field("trace")
            .as_array()
            .expect("trace is an array")
            .iter()
            .map(|d| d.as_u64().expect("trace decision") as u32)
            .collect();
        let kind = field("kind").as_str().expect("kind").to_string();
        entries.push(Entry {
            file,
            config,
            spec,
            trace,
            kind,
        });
    }
    entries
}

#[test]
fn corpus_is_present_and_covers_every_config() {
    let entries = load_corpus();
    assert!(
        entries.len() >= 3,
        "corpus must hold at least three pinned schedules, found {}",
        entries.len()
    );
    for cfg in configs() {
        assert!(
            entries.iter().any(|e| e.config.name == cfg.name),
            "no corpus entry pins a schedule for config {:?}",
            cfg.name
        );
    }
}

#[test]
fn every_corpus_entry_replays_clean() {
    for e in load_corpus() {
        let base = run_config(&e.config, None, false)
            .unwrap_or_else(|p| panic!("{}: baseline panicked: {p}", e.file));
        let (oracle, _) = TraceOracle::replay(e.spec, e.trace.clone());
        let got = run_config(&e.config, Some(oracle), false)
            .unwrap_or_else(|p| panic!("{}: replay panicked: {p}", e.file));
        assert_eq!(
            e.kind, "pinned-schedule",
            "{}: non-pinned corpus kinds need a matching expectation here",
            e.file
        );
        if e.config.drop.is_none() {
            assert_eq!(
                got.report_json, base.report_json,
                "{}: pinned schedule no longer reproduces the baseline report",
                e.file
            );
        } else {
            assert_eq!(
                got.checksum, base.checksum,
                "{}: pinned schedule changed the application checksum",
                e.file
            );
        }

        // Replay fidelity: the same trace replayed twice is byte-identical.
        let (oracle2, _) = TraceOracle::replay(e.spec, e.trace.clone());
        let again = run_config(&e.config, Some(oracle2), false)
            .unwrap_or_else(|p| panic!("{}: second replay panicked: {p}", e.file));
        assert_eq!(
            got.report_json, again.report_json,
            "{}: replay is not deterministic",
            e.file
        );
    }
}
