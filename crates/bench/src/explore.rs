//! Schedule/fault exploration harness: the mini model checker behind the
//! `explore` binary.
//!
//! The simulator's engine is deterministic, but three of its decisions are
//! *don't-care* points: which runnable node goes first at an equal virtual
//! clock, which of several same-time events targeting **different** nodes
//! applies first, and whether a fast-path skip in `yield_now`/`poll_point`
//! takes the slow detour instead. A correct program must produce the same
//! observable result no matter how those don't-cares are resolved. This
//! module seed-samples perturbations of every such point (via
//! [`mpmd_sim::TraceOracle`] plugged into the engine's `decide()` loop),
//! runs small fixed workloads under each perturbation, and checks a set of
//! invariants that must hold under ANY legal schedule:
//!
//! 1. **Byte-identical reports.** Fault-free runs must serialize to exactly
//!    the same `--json` report bytes under every perturbation. With faults
//!    on, only the event-tie class preserves bytes — node-tie and slow-path
//!    perturbations legitimately permute the order in which the global
//!    fault stream is consumed — so the full class falls back to checking
//!    the application-level checksum plus replay fidelity.
//! 2. **Application checksum.** Every workload folds the payloads it
//!    receives into an order-insensitive per-node sum; the per-node sums
//!    are FNV-hashed in node order. This must match the baseline under
//!    every perturbation, faults or not: schedules may reorder wire
//!    traffic, but the reliable layer must still deliver exactly-once.
//! 3. **Zero allocations on the short path.** The alloc-probed
//!    configuration counts every node's and the engine's allocations
//!    between a warmup barrier and the end of the send loop (the counting
//!    allocator's per-node counts); a perturbed schedule must not
//!    smuggle an allocation into the fast path.
//! 4. **Replay fidelity.** A recorded decision trace, replayed positionally
//!    through a fresh oracle, must reproduce the run byte-for-byte. This is
//!    what makes shrunk failure traces trustworthy as regression seeds.
//!
//! Invariants the sim crate enforces internally on every run — the
//! kernel's baton-holder check and re-entry borrow, and the reliable layer's
//! cumulative-ack monotonicity — surface here as panics, which the sweep
//! catches and reports as violations too.
//!
//! A failing perturbation is shrunk with [`mpmd_sim::shrink`] to a minimal
//! replayable trace; the binary writes these as corpus JSON entries that
//! `sim/tests/explore_corpus/` pins as regression tests.

use mpmd_am::{self as am, CoalesceConfig, NetProfile};
use mpmd_sim::baton::BACKEND;
use mpmd_sim::{CostModel, Fabric, FaultModel, OracleSpec, Sim, TraceOracle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::runner::{run_jobs, Unit};

/// Handler ids used by the exploration workloads (well clear of the
/// barrier handlers and other bench bins).
const H_PING: am::HandlerId = 150;
const H_PONG: am::HandlerId = 151;
const H_RING: am::HandlerId = 152;
const H_GHOST: am::HandlerId = 153;

/// Workload kernels, sized to finish in milliseconds so a sweep can afford
/// hundreds of perturbed runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Node 0 round-trips a null RMI to node 1 (`rounds` times); the
    /// alloc-probed configuration measures the steady-state send loop.
    NullRmi,
    /// Every node sends one token around a ring then barriers, per round.
    Barrier,
    /// EM3D-style ghost exchange: each node streams `degree` short
    /// messages to both neighbours per round, then barriers.
    Ghost,
}

/// One fixed exploration configuration: a workload plus its environment
/// (node count, fault model, coalescing, alloc probing).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub name: &'static str,
    pub workload: Workload,
    pub nodes: usize,
    pub rounds: u64,
    /// Messages per neighbour per round (ghost workload only).
    pub degree: u64,
    /// Uniform drop probability; dup = drop/2, reorder = drop (the
    /// `sweep_faults` convention). `None` runs fault-free.
    pub drop: Option<f64>,
    pub coalesce: bool,
    /// Count every node's and the engine's allocations over the
    /// steady-state window.
    pub alloc_probe: bool,
}

impl Config {
    fn fault_model(&self, seed: u64) -> Option<FaultModel> {
        self.drop.map(|d| FaultModel::uniform(seed, d, d / 2.0, d))
    }
}

/// The fixed configuration set explored by the sweep. Small node counts
/// and round counts keep a single run in the low milliseconds; the
/// coverage comes from the number of *schedules*, not the workload size.
pub fn configs() -> Vec<Config> {
    vec![
        Config {
            name: "null-rmi",
            workload: Workload::NullRmi,
            nodes: 2,
            rounds: 48,
            degree: 0,
            drop: None,
            coalesce: false,
            alloc_probe: true,
        },
        Config {
            name: "barrier-ring",
            workload: Workload::Barrier,
            nodes: 3,
            rounds: 12,
            degree: 0,
            drop: None,
            coalesce: false,
            alloc_probe: false,
        },
        Config {
            name: "ghost-coalesce",
            workload: Workload::Ghost,
            nodes: 4,
            rounds: 6,
            degree: 5,
            drop: None,
            coalesce: true,
            alloc_probe: false,
        },
        Config {
            name: "ghost-faults",
            workload: Workload::Ghost,
            nodes: 3,
            rounds: 4,
            degree: 4,
            drop: Some(0.2),
            coalesce: false,
            alloc_probe: false,
        },
        Config {
            name: "coalesce-faults",
            workload: Workload::Ghost,
            nodes: 3,
            rounds: 4,
            degree: 4,
            drop: Some(0.15),
            coalesce: true,
            alloc_probe: false,
        },
    ]
}

/// Fault-model seed: fixed per config so every perturbation of a config
/// faces the same wire adversary and differences come from scheduling.
const FAULT_SEED: u64 = 0x5EED_F417;

/// The observable outcome of one run, reduced to what the invariants
/// compare.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Canonical report JSON (`Report::to_json` through `serde_json`).
    pub report_json: String,
    /// FNV-1a over the per-node order-insensitive payload sums.
    pub checksum: u64,
    /// Allocations observed over the probed window (probe configs only).
    pub allocs: Option<u64>,
}

/// FNV-1a 64-bit, matching the fingerprint convention in `experiments`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run one configuration under an optional schedule oracle, returning the
/// comparable outcome. Panics inside the run (engine invariants, workload
/// asserts) are caught and returned as `Err` with the panic message.
pub fn run_config(
    cfg: &Config,
    oracle: Option<Box<TraceOracle>>,
    count_allocs: bool,
) -> Result<RunOutput, String> {
    let cfg = *cfg;
    let out = catch_unwind(AssertUnwindSafe(move || {
        run_config_inner(&cfg, oracle, count_allocs)
    }));
    out.map_err(|p| {
        p.downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>")
            .to_string()
    })
}

fn run_config_inner(
    cfg: &Config,
    oracle: Option<Box<TraceOracle>>,
    count_allocs: bool,
) -> RunOutput {
    // Per-node payload sums and message counts, collected inside the run.
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..cfg.nodes).map(|_| AtomicU64::new(0)).collect());
    let alloc_delta = Arc::new(AtomicU64::new(u64::MAX));

    let mut sim = Sim::new(cfg.nodes);
    if let Some(f) = cfg.fault_model(FAULT_SEED) {
        sim = sim.cost_model(CostModel::default().with_faults(f));
    }
    if let Some(o) = oracle {
        sim = sim.schedule_oracle(o);
    }

    let c = *cfg;
    let sums2 = Arc::clone(&sums);
    let delta2 = Arc::clone(&alloc_delta);
    let probe = cfg.alloc_probe && count_allocs;
    let report = sim.run(move |ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        if c.coalesce {
            am::enable_coalescing(&ctx, CoalesceConfig::default());
        }
        match c.workload {
            Workload::NullRmi => null_rmi(&ctx, &c, &sums2, &delta2, probe),
            Workload::Barrier => barrier_ring(&ctx, &c, &sums2),
            Workload::Ghost => ghost(&ctx, &c, &sums2),
        }
    });

    let words: Vec<u64> = sums.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    let allocs = match alloc_delta.load(Ordering::SeqCst) {
        u64::MAX => None,
        d => Some(d),
    };
    RunOutput {
        report_json: serde_json::to_string(&report.to_json()).expect("report serializes"),
        checksum: fnv1a(&words),
        allocs,
    }
}

/// Null-RMI ping/pong. Node 1's ping handler replies with a pong carrying
/// a derived word; node 0 folds pong payloads into its sum. The steady
/// state (second half of the rounds) is the alloc-probed window.
fn null_rmi(
    ctx: &mpmd_sim::Ctx,
    c: &Config,
    sums: &Arc<Vec<AtomicU64>>,
    delta: &Arc<AtomicU64>,
    probe: bool,
) {
    let pongs = Arc::new(AtomicU64::new(0));
    let p2 = Arc::clone(&pongs);
    let s2 = Arc::clone(sums);
    am::register(ctx, H_PING, move |hctx, m| {
        am::endpoint(hctx)
            .to(m.src)
            .handler(H_PONG)
            .args([m.args[0].wrapping_mul(3).wrapping_add(1), 0, 0, 0])
            .send();
    });
    let me = ctx.node();
    am::register(ctx, H_PONG, move |_hctx, m| {
        s2[me].fetch_add(m.args[0], Ordering::SeqCst);
        p2.fetch_add(1, Ordering::SeqCst);
    });
    am::barrier(ctx);
    if ctx.node() == 0 {
        let warmup = c.rounds / 2;
        let mut probe_start = None;
        let ep = am::endpoint(ctx);
        for i in 0..c.rounds {
            if i == warmup && probe {
                probe_start = Some(ctx.snapshot());
            }
            ep.to(1).handler(H_PING).args([i, 0, 0, 0]).send();
            let want = i + 1;
            let pw = Arc::clone(&pongs);
            am::wait_until(ctx, move || pw.load(Ordering::SeqCst) >= want);
        }
        if let Some(start) = probe_start {
            // Every node's allocations, and the engine's.
            let d = start.until(&ctx.snapshot());
            let allocs = d.allocs.iter().sum::<u64>() + d.engine_allocs;
            delta.store(allocs, Ordering::SeqCst);
        }
    }
    am::barrier(ctx);
}

/// Token ring with a barrier per round: every node sends one token to its
/// right neighbour, waits for the round's token, then barriers. Stresses
/// node-tie choices (all nodes runnable at equal clocks after release).
fn barrier_ring(ctx: &mpmd_sim::Ctx, c: &Config, sums: &Arc<Vec<AtomicU64>>) {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&seen);
    let sums2 = Arc::clone(sums);
    let me = ctx.node();
    am::register(ctx, H_RING, move |_hctx, m| {
        sums2[me].fetch_add(m.args[0], Ordering::SeqCst);
        s2.fetch_add(1, Ordering::SeqCst);
    });
    am::barrier(ctx);
    let n = c.nodes;
    for round in 0..c.rounds {
        am::endpoint(ctx)
            .to((me + 1) % n)
            .handler(H_RING)
            .args([round * n as u64 + me as u64 + 1, 0, 0, 0])
            .send();
        let want = round + 1;
        let sw = Arc::clone(&seen);
        am::wait_until(ctx, move || sw.load(Ordering::SeqCst) >= want);
        am::barrier(ctx);
    }
}

/// EM3D-style ghost exchange: `degree` short messages to each neighbour
/// per round, then a barrier. With coalescing on, sub-messages pack into
/// frames and the per-round barrier exercises flush-at-poll; with faults
/// on, retransmitted frames race those flushes.
fn ghost(ctx: &mpmd_sim::Ctx, c: &Config, sums: &Arc<Vec<AtomicU64>>) {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&seen);
    let sums2 = Arc::clone(sums);
    let me = ctx.node();
    am::register(ctx, H_GHOST, move |_hctx, m| {
        sums2[me].fetch_add(m.args[0], Ordering::SeqCst);
        s2.fetch_add(1, Ordering::SeqCst);
    });
    am::barrier(ctx);
    let n = c.nodes;
    let left = (me + n - 1) % n;
    let right = (me + 1) % n;
    // Two distinct neighbours per node requires n >= 3.
    let per_round = 2 * c.degree;
    for round in 0..c.rounds {
        let ep = am::endpoint(ctx);
        for g in 0..c.degree {
            let w = round * 10_000 + g * 100 + me as u64 + 1;
            ep.to(left).handler(H_GHOST).args([w, 0, 0, 0]).send();
            ep.to(right).handler(H_GHOST).args([w + 7, 0, 0, 0]).send();
        }
        let want = (round + 1) * per_round;
        let sw = Arc::clone(&seen);
        am::wait_until(ctx, move || sw.load(Ordering::SeqCst) >= want);
        am::barrier(ctx);
    }
}

/// One confirmed invariant violation, with its shrunk replay trace.
#[derive(Clone, Debug)]
pub struct Violation {
    pub config: &'static str,
    pub spec: OracleSpec,
    /// Shrunk decision trace that still reproduces the failure.
    pub trace: Vec<u32>,
    pub kind: String,
    pub detail: String,
}

impl Violation {
    /// Corpus entry JSON, the format `sim/tests/explore_corpus/` pins; its
    /// `backend` is the host of the build that recorded it.
    pub fn corpus_json(&self) -> serde_json::Value {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("config".to_string(), self.config.to_value());
        m.insert("backend".to_string(), BACKEND.name().to_value());
        m.insert("seed".to_string(), self.spec.seed.to_value());
        m.insert("node_ties".to_string(), self.spec.node_ties.to_value());
        m.insert("event_ties".to_string(), self.spec.event_ties.to_value());
        m.insert("slow_period".to_string(), self.spec.slow_period.to_value());
        m.insert(
            "trace".to_string(),
            serde_json::Value::Array(self.trace.iter().map(|d| d.to_value()).collect()),
        );
        m.insert("kind".to_string(), self.kind.to_value());
        m.insert("note".to_string(), self.detail.to_value());
        serde_json::Value::Object(m)
    }
}

/// Sweep sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Seeded perturbations per (config, oracle-class) pair.
    pub seeds_per_class: usize,
    /// Worker threads for the perturbed runs (the alloc-probed config
    /// always runs its probed baseline sequentially).
    pub jobs: usize,
    /// Replay-fidelity check cadence: every `replay_every`-th seeded run
    /// is re-executed from its recorded trace and compared byte-for-byte.
    pub replay_every: usize,
}

/// Aggregate result of a sweep.
#[derive(Debug, Default)]
pub struct SweepSummary {
    pub configs: usize,
    /// Perturbed runs executed (excludes baselines and replays).
    pub perturbations: usize,
    /// Replay-fidelity re-runs executed.
    pub replays: usize,
    pub violations: Vec<Violation>,
}

/// What a perturbed run must reproduce from the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// Byte-identical report JSON (implies identical checksum).
    Bytes,
    /// Identical application checksum only (fault-stream draw order
    /// legitimately differs, so report bytes may too).
    Checksum,
}

/// Outcome of one seeded perturbation, produced on a worker thread and
/// judged on the driver thread.
struct SeedOutcome {
    spec: OracleSpec,
    expect: Expect,
    result: Result<RunOutput, String>,
    trace: Vec<u32>,
    /// `Some(ok)` when this run's trace was replayed for fidelity.
    replay_ok: Option<bool>,
}

/// Run the full sweep over [`configs`]. `count_allocs` says the binary
/// installs the counting allocator (`false` disables alloc-count
/// invariants, e.g. under the test harness, which does not). `log`
/// receives one progress line per config.
pub fn sweep(opts: &SweepOptions, count_allocs: bool, mut log: impl FnMut(String)) -> SweepSummary {
    let mut summary = SweepSummary::default();
    for cfg in configs() {
        let fault_free = cfg.drop.is_none();
        // The baseline: unperturbed, probed where configured.
        let base = match run_config(&cfg, None, count_allocs) {
            Ok(b) => b,
            Err(e) => {
                summary.violations.push(Violation {
                    config: cfg.name,
                    spec: OracleSpec::full(0),
                    trace: Vec::new(),
                    kind: "baseline-panic".into(),
                    detail: e,
                });
                continue;
            }
        };
        if let Some(a) = base.allocs {
            if a != 0 {
                summary.violations.push(Violation {
                    config: cfg.name,
                    spec: OracleSpec::full(0),
                    trace: Vec::new(),
                    kind: "alloc-on-short-path".into(),
                    detail: format!("baseline allocated {a} times in probed window"),
                });
            }
        }
        // Perturbed schedules must keep the short path allocation-free
        // too: run a few full-class perturbations with the probe live (the
        // parallel sweep below checks bytes and checksums only).
        if cfg.alloc_probe && count_allocs {
            for s in 0..4u64 {
                let spec = OracleSpec::full(5000 + s);
                let (o, rec) = TraceOracle::seeded(spec);
                summary.perturbations += 1;
                match run_config(&cfg, Some(o), count_allocs) {
                    Ok(out) if out.allocs == Some(0) => {}
                    Ok(out) => summary.violations.push(Violation {
                        config: cfg.name,
                        spec,
                        trace: rec.decisions(),
                        kind: "alloc-on-short-path".into(),
                        detail: format!(
                            "perturbed schedule allocated {:?} times in probed window",
                            out.allocs
                        ),
                    }),
                    Err(e) => summary.violations.push(Violation {
                        config: cfg.name,
                        spec,
                        trace: rec.decisions(),
                        kind: "panic".into(),
                        detail: e,
                    }),
                }
            }
        }
        // Perturbation classes. Event-tie-only perturbations commute with
        // the fault stream (they permute already-drawn events targeting
        // different nodes), so they must preserve bytes even under faults.
        // Full perturbations also reorder node execution and force slow
        // paths, which permutes fault draws: bytes fault-free, checksum
        // under faults.
        let full = if fault_free {
            Expect::Bytes
        } else {
            Expect::Checksum
        };
        let plan: Vec<(OracleSpec, Expect)> = (0..opts.seeds_per_class as u64)
            .flat_map(|s| {
                [
                    (OracleSpec::event_ties_only(s), Expect::Bytes),
                    (OracleSpec::full(s), full),
                ]
            })
            .collect();

        let replay_every = opts.replay_every.max(1);
        let units: Vec<Unit<SeedOutcome>> = plan
            .iter()
            .enumerate()
            .map(|(i, &(spec, expect))| {
                let do_replay = i % replay_every == 0;
                Box::new(move || {
                    let (oracle, rec) = TraceOracle::seeded(spec);
                    let result = run_config(&cfg, Some(oracle), false);
                    let trace = rec.decisions();
                    let replay_ok = match (&result, do_replay) {
                        (Ok(out), true) => {
                            let (o2, _) = TraceOracle::replay(spec, trace.clone());
                            Some(matches!(
                                run_config(&cfg, Some(o2), false),
                                Ok(r2) if r2.report_json == out.report_json
                            ))
                        }
                        _ => None,
                    };
                    SeedOutcome {
                        spec,
                        expect,
                        result,
                        trace,
                        replay_ok,
                    }
                }) as Unit<SeedOutcome>
            })
            .collect();
        let outcomes = run_jobs(units, opts.jobs);

        let mut config_violations = 0usize;
        for o in &outcomes {
            summary.perturbations += 1;
            if o.replay_ok.is_some() {
                summary.replays += 1;
            }
            let failure: Option<(String, String)> = match &o.result {
                Err(e) => Some(("panic".into(), e.clone())),
                Ok(out) => {
                    if o.expect == Expect::Bytes && out.report_json != base.report_json {
                        Some((
                            "report-divergence".into(),
                            format!(
                                "report bytes differ from baseline \
                                 (checksums {:#x} vs {:#x})",
                                out.checksum, base.checksum
                            ),
                        ))
                    } else if out.checksum != base.checksum {
                        Some((
                            "checksum-divergence".into(),
                            format!(
                                "application checksum {:#x} != baseline {:#x}",
                                out.checksum, base.checksum
                            ),
                        ))
                    } else if o.replay_ok == Some(false) {
                        Some((
                            "replay-divergence".into(),
                            "replaying the recorded trace did not reproduce \
                             the run byte-for-byte"
                                .into(),
                        ))
                    } else {
                        None
                    }
                }
            };
            if let Some((kind, detail)) = failure {
                config_violations += 1;
                let shrunk = shrink_failure(&cfg, &base, o);
                summary.violations.push(Violation {
                    config: cfg.name,
                    spec: o.spec,
                    trace: shrunk,
                    kind,
                    detail,
                });
            }
        }
        summary.configs += 1;
        log(format!(
            "{:16} {:4} perturbations  {:3} replays  {} violations",
            cfg.name,
            outcomes.len(),
            outcomes.iter().filter(|o| o.replay_ok.is_some()).count(),
            config_violations,
        ));
    }
    summary
}

/// Record pinned-schedule corpus entries: for every configuration, the
/// full decision traces of two seeded full-class perturbations. These are
/// known-good schedules — the corpus replay test re-executes each one and
/// asserts the invariant class for its config still holds, so any future
/// engine change that makes one of these schedules observable again fails
/// with a ready-made replayable witness. (Entries with other `kind`s are
/// shrunk traces of bugs the sweep caught; see the module docs.)
pub fn pin_corpus() -> Vec<Violation> {
    let mut out = Vec::new();
    for cfg in configs() {
        for seed in [0u64, 1] {
            let spec = OracleSpec::full(seed);
            let (o, rec) = TraceOracle::seeded(spec);
            let run = run_config(&cfg, Some(o), false).expect("pinned schedule must not panic");
            let expect = if cfg.drop.is_none() {
                "byte-identical report"
            } else {
                "identical application checksum"
            };
            out.push(Violation {
                config: cfg.name,
                spec,
                trace: rec.decisions(),
                kind: "pinned-schedule".into(),
                detail: format!(
                    "known-good schedule; replay must reproduce {expect} \
                     (checksum {:#x})",
                    run.checksum
                ),
            });
        }
    }
    out
}

/// Shrink a failing perturbation to a minimal trace that still violates
/// the same invariant class when replayed.
fn shrink_failure(cfg: &Config, base: &RunOutput, o: &SeedOutcome) -> Vec<u32> {
    let cfg = *cfg;
    let spec = o.spec;
    let expect = o.expect;
    let base_json = base.report_json.clone();
    let base_sum = base.checksum;
    mpmd_sim::shrink(o.trace.clone(), |prefix| {
        let (oracle, _) = TraceOracle::replay(spec, prefix.to_vec());
        match run_config(&cfg, Some(oracle), false) {
            Err(_) => true,
            Ok(out) => match expect {
                Expect::Bytes => out.report_json != base_json,
                Expect::Checksum => out.checksum != base_sum,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every config's unperturbed run is reproducible.
    #[test]
    fn baselines_are_deterministic() {
        for cfg in configs() {
            let a = run_config(&cfg, None, false).unwrap();
            let b = run_config(&cfg, None, false).unwrap();
            assert_eq!(
                a.report_json, b.report_json,
                "{} not reproducible",
                cfg.name
            );
            assert_ne!(
                a.checksum, 0,
                "{} produced no application traffic",
                cfg.name
            );
        }
    }

    /// A tiny sweep (few seeds, all configs) must report zero violations.
    #[test]
    fn mini_sweep_is_clean() {
        let opts = SweepOptions {
            seeds_per_class: 3,
            jobs: 2,
            replay_every: 4,
        };
        let s = sweep(&opts, false, |_| {});
        assert_eq!(s.configs, configs().len());
        assert!(s.perturbations >= 3 * 2 * configs().len());
        assert!(s.replays > 0);
        assert!(
            s.violations.is_empty(),
            "mini sweep found violations: {:?}",
            s.violations
        );
    }

    /// Perturbed runs preserve the application checksum even when report
    /// bytes legitimately differ (faults + full perturbation class).
    #[test]
    fn faulty_full_perturbation_preserves_checksum() {
        let cfg = configs()
            .into_iter()
            .find(|c| c.name == "ghost-faults")
            .unwrap();
        let base = run_config(&cfg, None, false).unwrap();
        for seed in 0..4 {
            let (o, _) = TraceOracle::seeded(OracleSpec::full(seed));
            let out = run_config(&cfg, Some(o), false).unwrap();
            assert_eq!(out.checksum, base.checksum, "seed {seed}");
        }
    }
}
