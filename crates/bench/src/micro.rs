//! The Table 4 micro-benchmarks (Figures 2 and 3 of the paper give their
//! pseudo-code).
//!
//! Node 0 is the initiator; node 1 serves in a spin-poll loop, exactly like
//! the paper's averaged ping-pong measurements (10000 iterations there; the
//! simulator is deterministic so far fewer suffice). Components follow the
//! paper's accounting: `Total` is the initiator's wall time per iteration,
//! `Threads` and `Runtime` are the charged thread/runtime costs across both
//! nodes, and `AM = Total − Threads − Runtime`.

use crate::fmt::JsonReport;
use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, CxPtr, MarshalBuf};
use mpmd_sim::{to_us, Bucket, CostModel, Ctx, Fabric, Sim, Snapshot};
use mpmd_splitc as sc;
use mpmd_splitc::GlobalPtr;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Measured components of one micro-benchmark, per reported unit (one
/// iteration, or one element for the prefetch rows), in µs / counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    pub total_us: f64,
    pub am_us: f64,
    pub threads_us: f64,
    pub yields: f64,
    pub creates: f64,
    pub syncs: f64,
    pub runtime_us: f64,
    /// Charged time per cost bucket across both nodes, in µs per unit,
    /// indexed by [`Bucket::index`] (the `--json` per-bucket totals).
    pub bucket_us: [f64; mpmd_sim::NUM_BUCKETS],
}

/// JSON form with the per-bucket totals keyed by [`Bucket::label`].
impl JsonReport for Measured {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde::Serialize as _;
        vec![
            ("total_us", self.total_us.to_value()),
            ("am_us", self.am_us.to_value()),
            ("threads_us", self.threads_us.to_value()),
            ("yields", self.yields.to_value()),
            ("creates", self.creates.to_value()),
            ("syncs", self.syncs.to_value()),
            ("runtime_us", self.runtime_us.to_value()),
            (
                "bucket_us",
                crate::fmt::bucket_object(|b| self.bucket_us[b.index()].to_value()),
            ),
        ]
    }
}

fn reduce(start: &Snapshot, end: &Snapshot, units: f64) -> Measured {
    let d = start.until(end);
    let t = d.total_stats();
    let total_us = to_us(d.clocks[0]) / units;
    let threads_us =
        (to_us(t.bucket(Bucket::ThreadMgmt)) + to_us(t.bucket(Bucket::ThreadSync))) / units;
    let runtime_us = to_us(t.bucket(Bucket::Runtime)) / units;
    let mut bucket_us = [0.0; mpmd_sim::NUM_BUCKETS];
    for b in Bucket::ALL {
        bucket_us[b.index()] = to_us(t.bucket(b)) / units;
    }
    Measured {
        total_us,
        am_us: total_us - threads_us - runtime_us,
        threads_us,
        yields: t.context_switches as f64 / units,
        creates: t.thread_creates as f64 / units,
        syncs: t.sync_ops as f64 / units,
        runtime_us,
        bucket_us,
    }
}

/// The benchmark context handed to each op: a 20-double region on every
/// node plus ready-made pointers at node 1's copy.
pub struct BenchSetup {
    pub region: u32,
    /// Pointers to the 20 doubles on node 1.
    pub remote: Vec<CxPtr>,
    /// The same, as Split-C global pointers.
    pub remote_sc: Vec<GlobalPtr>,
}

/// One iteration of a micro-benchmark, on node 0.
type Op = Arc<dyn Fn(&Ctx, &BenchSetup) + Send + Sync>;

/// Run a CC++ micro-benchmark: `warmup` unmeasured iterations (populating
/// the stub cache and persistent buffers), then `iters` measured ones.
/// `units_per_iter` scales per-element rows.
pub fn measure_ccxx(
    cfg: CcxxConfig,
    cost: CostModel,
    warmup: usize,
    iters: usize,
    units_per_iter: f64,
    op: Op,
) -> Measured {
    measure(Some(cfg), cost, warmup, iters, units_per_iter, op)
}

/// Run a Split-C micro-benchmark (same protocol).
pub fn measure_splitc(warmup: usize, iters: usize, units_per_iter: f64, op: Op) -> Measured {
    measure(
        None,
        CostModel::default(),
        warmup,
        iters,
        units_per_iter,
        op,
    )
}

/// The one Table 4 harness, in CC++ with configuration `cfg` or, when it is
/// `None`, in Split-C: node 0 runs `op` `warmup` times, then `iters` measured
/// times, and stops node 1's spin-poll loop with a last null round trip.
fn measure(
    cfg: Option<CcxxConfig>,
    cost: CostModel,
    warmup: usize,
    iters: usize,
    units_per_iter: f64,
    op: Op,
) -> Measured {
    let result: Arc<Mutex<Option<Measured>>> = Arc::new(Mutex::new(None));
    let r2 = Arc::clone(&result);
    let stop = Arc::new(AtomicBool::new(false));
    Sim::new(2).cost_model(cost).run(move |ctx| {
        let region = match &cfg {
            Some(cfg) => {
                cx::init(&ctx, cfg.clone());
                cx::alloc_region(&ctx, 20, 1.25)
            }
            None => {
                sc::init(&ctx);
                sc::alloc_region(&ctx, 20, 1.25)
            }
        };
        let setup = BenchSetup {
            region,
            remote: (0..20)
                .map(|offset| CxPtr {
                    node: 1,
                    region,
                    offset,
                })
                .collect(),
            remote_sc: (0..20)
                .map(|offset| GlobalPtr {
                    node: 1,
                    region,
                    offset,
                })
                .collect(),
        };
        let barrier = || match cfg {
            Some(_) => cx::barrier(&ctx),
            None => sc::barrier(&ctx),
        };
        barrier();
        if ctx.node() == 0 {
            for _ in 0..warmup {
                op(&ctx, &setup);
            }
            let s0 = ctx.snapshot();
            for _ in 0..iters {
                op(&ctx, &setup);
            }
            let s1 = ctx.snapshot();
            *r2.lock() = Some(reduce(&s0, &s1, iters as f64 * units_per_iter));
            stop.store(true, Ordering::Release);
            // Wake the responder's spin loop so it can leave.
            match cfg {
                Some(_) => {
                    cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
                }
                None => {
                    sc::atomic_rpc(&ctx, 1, sc::ATOMIC_NULL, [0; 3]);
                }
            }
        } else {
            let stopped = || stop.load(Ordering::Acquire);
            match cfg {
                Some(_) => cx::spin_until(&ctx, stopped),
                None => am::wait_until(&ctx, stopped),
            }
        }
        match cfg {
            Some(_) => cx::finalize(&ctx),
            None => barrier(),
        }
    });
    let out = result.lock().expect("benchmark produced no measurement");
    out
}

/// One Table 4 row: the CC++ measurement, the Split-C one where the paper
/// has one, and the paper's reported values for comparison.
#[derive(Clone, Debug)]
pub struct Table4Row {
    pub name: &'static str,
    pub cc: Measured,
    pub sc: Option<Measured>,
    /// Paper: CC++ (total, am, threads, runtime).
    pub paper_cc: (f64, f64, f64, f64),
    /// Paper: Split-C (total, am, runtime).
    pub paper_sc: Option<(f64, f64, f64)>,
}

/// JSON form for `--json` output: measured values plus the paper's
/// reference numbers.
impl JsonReport for Table4Row {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde::Serialize as _;
        let (t, a, th, rt) = self.paper_cc;
        vec![
            ("name", self.name.to_value()),
            ("cc", self.cc.to_json()),
            (
                "sc",
                match &self.sc {
                    Some(sc) => sc.to_json(),
                    None => serde_json::Value::Null,
                },
            ),
            ("paper_cc_us", [t, a, th, rt].to_value()),
            (
                "paper_sc_us",
                match self.paper_sc {
                    Some((t, a, rt)) => [t, a, rt].to_value(),
                    None => serde_json::Value::Null,
                },
            ),
        ]
    }
}

/// Run the complete micro-benchmark suite with the given iteration count.
pub fn run_table4(iters: usize) -> Vec<Table4Row> {
    run_table4_with(CcxxConfig::tham(), CostModel::default(), iters)
}

/// As [`run_table4`] but against an arbitrary runtime configuration (used
/// by the ablation harness).
pub fn run_table4_with(cfg: CcxxConfig, cost: CostModel, iters: usize) -> Vec<Table4Row> {
    let w = 4; // warm-up iterations
    let cc = |op: Op, units: f64| measure_ccxx(cfg.clone(), cost.clone(), w, iters, units, op);
    let scm = |op: Op, units: f64| measure_splitc(w, iters, units, op);

    let mut rows = Vec::new();

    rows.push(Table4Row {
        name: "0-Word Simple",
        cc: cc(
            Arc::new(|ctx, _s| {
                cx::rmi(ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
            }),
            1.0,
        ),
        sc: None,
        paper_cc: (67.0, 55.0, 4.0, 8.0),
        paper_sc: None,
    });

    rows.push(Table4Row {
        name: "0-Word",
        cc: cc(
            Arc::new(|ctx, _s| {
                cx::rmi(ctx, 1, cx::M_NULL, &[], None, CallMode::Blocking);
            }),
            1.0,
        ),
        sc: None,
        paper_cc: (77.0, 55.0, 12.0, 10.0),
        paper_sc: None,
    });

    rows.push(Table4Row {
        name: "1-Word",
        cc: cc(
            Arc::new(|ctx, _s| {
                let mut b = MarshalBuf::new();
                b.push(ctx, &7u32);
                cx::rmi(ctx, 1, cx::M_NULL, &[], Some(b), CallMode::Blocking);
            }),
            1.0,
        ),
        sc: None,
        paper_cc: (94.0, 70.0, 12.0, 12.0),
        paper_sc: None,
    });

    rows.push(Table4Row {
        name: "2-Word",
        cc: cc(
            Arc::new(|ctx, _s| {
                let mut b = MarshalBuf::new();
                b.push(ctx, &7u32);
                b.push(ctx, &9u32);
                cx::rmi(ctx, 1, cx::M_NULL, &[], Some(b), CallMode::Blocking);
            }),
            1.0,
        ),
        sc: None,
        paper_cc: (95.0, 70.0, 12.0, 13.0),
        paper_sc: None,
    });

    rows.push(Table4Row {
        name: "0-Word Threaded",
        cc: cc(
            Arc::new(|ctx, _s| {
                cx::rmi(ctx, 1, cx::M_NULL, &[], None, CallMode::Threaded);
            }),
            1.0,
        ),
        sc: None,
        paper_cc: (87.0, 55.0, 21.0, 11.0),
        paper_sc: None,
    });

    rows.push(Table4Row {
        name: "0-Word Atomic",
        cc: cc(
            Arc::new(|ctx, _s| {
                cx::rmi(ctx, 1, cx::M_NULL, &[], None, CallMode::Atomic);
            }),
            1.0,
        ),
        sc: Some(scm(
            Arc::new(|ctx, _s| {
                sc::atomic_rpc(ctx, 1, sc::ATOMIC_NULL, [0; 3]);
            }),
            1.0,
        )),
        paper_cc: (88.0, 55.0, 21.0, 12.0),
        paper_sc: Some((56.0, 53.0, 3.0)),
    });

    rows.push(Table4Row {
        name: "GP 2-Word R/W",
        cc: cc(
            Arc::new(|ctx, s| {
                cx::gp_read(ctx, s.remote[0]);
            }),
            1.0,
        ),
        sc: Some(scm(
            Arc::new(|ctx, s| {
                sc::read(ctx, s.remote_sc[0]);
            }),
            1.0,
        )),
        paper_cc: (92.0, 55.0, 21.0, 16.0),
        paper_sc: Some((57.0, 53.0, 4.0)),
    });

    rows.push(Table4Row {
        name: "BulkWrite 40-Word",
        cc: cc(
            Arc::new(|ctx, s| {
                let vals = vec![2.5f64; 20];
                cx::bulk_put(ctx, s.remote[0], &vals);
            }),
            1.0,
        ),
        sc: Some(scm(
            Arc::new(|ctx, s| {
                let vals = vec![2.5f64; 20];
                sc::bulk_write(ctx, s.remote_sc[0], &vals);
            }),
            1.0,
        )),
        paper_cc: (154.0, 70.0, 21.0, 63.0),
        paper_sc: Some((74.0, 70.0, 4.0)),
    });

    rows.push(Table4Row {
        name: "BulkRead 40-Word",
        cc: cc(
            Arc::new(|ctx, s| {
                cx::bulk_get(ctx, s.remote[0], 20);
            }),
            1.0,
        ),
        sc: Some(scm(
            Arc::new(|ctx, s| {
                sc::bulk_read(ctx, s.remote_sc[0], 20);
            }),
            1.0,
        )),
        paper_cc: (177.0, 70.0, 21.0, 86.0),
        paper_sc: Some((75.0, 70.0, 5.0)),
    });

    rows.push(Table4Row {
        name: "Prefetch 20-Word",
        cc: cc(
            Arc::new(|ctx, s| {
                cx::prefetch(ctx, &s.remote);
            }),
            20.0,
        ),
        sc: Some(scm(
            Arc::new(|ctx, s| {
                let handles: Vec<_> = s.remote_sc.iter().map(|&gp| sc::get(ctx, gp)).collect();
                sc::sync(ctx);
                for h in &handles {
                    h.value();
                }
            }),
            20.0,
        )),
        paper_cc: (35.4, 5.3, 21.0, 9.1),
        paper_sc: Some((12.1, 6.2, 5.9)),
    });

    rows
}

/// Optimistic Active Messages comparison (extension; §7 related work):
/// null-RMI totals for threaded dispatch vs optimistic dispatch of a
/// non-blocking and a possibly-blocking method. Returns (label, µs) rows.
pub fn measure_oam(iters: usize) -> Vec<(&'static str, f64)> {
    fn measure(iters: usize, register_blocks: bool, mode: CallMode) -> f64 {
        let result = Arc::new(Mutex::new(0.0f64));
        let r2 = Arc::clone(&result);
        let stop = Arc::new(AtomicBool::new(false));
        Sim::new(2).run(move |ctx| {
            cx::init(&ctx, CcxxConfig::tham());
            cx::register_method_full(
                &ctx,
                cx::DEFAULT_PROGRAM,
                "victim",
                register_blocks,
                |_ctx, _| cx::RmiRet::null(),
            );
            cx::barrier(&ctx);
            if ctx.node() == 0 {
                for _ in 0..4 {
                    cx::rmi(&ctx, 1, "victim", &[], None, mode);
                }
                let t0 = ctx.now();
                for _ in 0..iters {
                    cx::rmi(&ctx, 1, "victim", &[], None, mode);
                }
                *r2.lock() = to_us(ctx.now() - t0) / iters as f64;
                stop.store(true, Ordering::Release);
                cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
            } else {
                let s = Arc::clone(&stop);
                cx::spin_until(&ctx, move || s.load(Ordering::Acquire));
            }
            cx::finalize(&ctx);
        });
        let v = *result.lock();
        v
    }
    vec![
        (
            "threaded (always spawns)",
            measure(iters, true, CallMode::Threaded),
        ),
        (
            "optimistic, non-blocking method (runs on the stack)",
            measure(iters, false, CallMode::Optimistic),
        ),
        (
            "optimistic, blocking method (aborts to a thread)",
            measure(iters, true, CallMode::Optimistic),
        ),
    ]
}

/// The IBM MPL reference: a null round trip over the MPL cost profile
/// (Table 4's caption: 88 µs under AIX 3.2.5).
pub fn measure_mpl_rtt() -> f64 {
    const H_ECHO: am::HandlerId = 200;
    const H_DONE: am::HandlerId = 201;
    let out = Arc::new(Mutex::new(0.0f64));
    let o2 = Arc::clone(&out);
    Sim::new(2).run(move |ctx| {
        am::init(&ctx, am::NetProfile::ibm_mpl());
        am::register_barrier_handlers(&ctx);
        if ctx.node() == 0 {
            let cell = am::ReplyCell::new();
            let c2 = Arc::clone(&cell);
            am::register(&ctx, H_DONE, move |_ctx, m| c2.complete(m.args));
            am::barrier(&ctx);
            let t0 = ctx.now();
            am::endpoint(&ctx).to(1).handler(H_ECHO).send();
            let c3 = Arc::clone(&cell);
            am::wait_until(&ctx, move || c3.is_done());
            *o2.lock() = to_us(ctx.now() - t0);
            am::barrier(&ctx);
        } else {
            let served = Arc::new(AtomicBool::new(false));
            let s2 = Arc::clone(&served);
            am::register(&ctx, H_ECHO, move |ctx, m| {
                am::endpoint(ctx)
                    .to(m.src)
                    .handler(H_DONE)
                    .args(m.args)
                    .send();
                s2.store(true, Ordering::Release);
            });
            am::barrier(&ctx);
            let s3 = Arc::clone(&served);
            am::wait_until(&ctx, move || s3.load(Ordering::Acquire));
            am::barrier(&ctx);
        }
    });
    let v = *out.lock();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration test: every Table 4 Total within 15% of the
    /// paper (counts are checked loosely — the paper's per-op attribution
    /// conventions are not fully recoverable from the scanned table).
    #[test]
    fn table4_totals_match_paper_within_15_percent() {
        let rows = run_table4(40);
        for r in &rows {
            let rel = (r.cc.total_us - r.paper_cc.0).abs() / r.paper_cc.0;
            assert!(
                rel < 0.15,
                "{}: cc++ total {:.1} vs paper {:.1} ({:.0}% off)",
                r.name,
                r.cc.total_us,
                r.paper_cc.0,
                rel * 100.0
            );
            if let (Some(sc), Some(p)) = (&r.sc, &r.paper_sc) {
                let rel = (sc.total_us - p.0).abs() / p.0;
                assert!(
                    rel < 0.15,
                    "{}: split-c total {:.1} vs paper {:.1}",
                    r.name,
                    sc.total_us,
                    p.0
                );
            }
        }
    }

    #[test]
    fn table4_runtime_columns_track_paper() {
        let rows = run_table4(40);
        for r in &rows {
            let diff = (r.cc.runtime_us - r.paper_cc.3).abs();
            assert!(
                diff < r.paper_cc.3 * 0.35 + 2.0,
                "{}: cc++ runtime {:.1} vs paper {:.1}",
                r.name,
                r.cc.runtime_us,
                r.paper_cc.3
            );
        }
    }

    #[test]
    fn simple_rmi_is_12us_over_raw_am_and_beats_mpl() {
        // "the round-trip time of a 0-Word Simple is only 12 µs slower than
        // the base round-trip time of the AM layer, and 21 µs faster than
        // IBM MPL".
        let rows = run_table4(40);
        let simple = rows.iter().find(|r| r.name == "0-Word Simple").unwrap();
        let raw_am = 55.0;
        let over = simple.cc.total_us - raw_am;
        assert!((5.0..20.0).contains(&over), "overhead over AM = {over:.1}");
        let mpl = measure_mpl_rtt();
        assert!((mpl - 88.0).abs() < 1.0, "MPL rtt = {mpl:.1}");
        assert!(simple.cc.total_us < mpl);
    }

    #[test]
    fn threaded_rmi_creates_one_thread_per_call() {
        let rows = run_table4(20);
        let threaded = rows.iter().find(|r| r.name == "0-Word Threaded").unwrap();
        assert!(
            (threaded.cc.creates - 1.0).abs() < 0.2,
            "creates/iter = {:.2}",
            threaded.cc.creates
        );
        let simple = rows.iter().find(|r| r.name == "0-Word Simple").unwrap();
        assert_eq!(simple.cc.creates, 0.0);
        assert_eq!(simple.cc.yields, 0.0);
    }

    #[test]
    fn prefetch_beats_blocking_reads_but_trails_splitc() {
        let rows = run_table4(20);
        let pf = rows.iter().find(|r| r.name == "Prefetch 20-Word").unwrap();
        let gp = rows.iter().find(|r| r.name == "GP 2-Word R/W").unwrap();
        // Latency hiding works...
        assert!(pf.cc.total_us < gp.cc.total_us * 0.6);
        // ...but "the overhead of thread management reduces the
        // effectiveness of latency hiding substantially" vs Split-C.
        let sc_pf = pf.sc.as_ref().unwrap();
        assert!(pf.cc.total_us > 2.0 * sc_pf.total_us);
    }
}
