//! The Table 4 micro-benchmarks (Figures 2 and 3 of the paper give their
//! pseudo-code) and the Optimistic Active Messages comparison.
//!
//! A row is data: `Row` names its CC++ op, its Split-C op where the paper
//! has one, its units and the paper's columns. One body, `measure`, runs an
//! op as the paper's averaged ping-pong: node 0 is the initiator and node 1
//! serves in a spin-poll loop (10000 iterations there; the simulator is
//! deterministic so far fewer suffice). The body takes the machine as its
//! run function: `Sim` for the published table, or `LocalFabricBuilder` for
//! the same rows on OS threads. One table, `tests::table4_charges`, gives
//! each row's charges per op from the cost fields and its deviations from
//! the paper's Threads and Runtime columns; `table4_charges_match_the_trace`
//! holds the simulator's trace to it, and the count gate
//! (`table4_counts_agree_on_both_fabrics`) holds both machines' messages,
//! bytes, handlers and thread creates to it.
//!
//! Components follow the paper's accounting: `Total` is the initiator's
//! wall time per iteration, `Threads` and `Runtime` are the charged
//! thread/runtime costs across both nodes, and `AM = Total − Threads −
//! Runtime`.

use crate::fmt::JsonReport;
use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, CxPtr, MarshalBuf};
use mpmd_sim::{to_us, Bucket, CostModel, Ctx, Fabric, Report, Sim};
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

/// Per-unit components of the measured interval `d`.
fn reduce(d: &Report, units: f64) -> Measured {
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

/// What a machine runs on each of its nodes.
type Body<F> = Box<dyn Fn(F) + Send + Sync>;

/// One iteration of a caller's own micro-benchmark, on node 0 (Table 4's
/// rows are `Row`s).
type Op = Arc<dyn Fn(&Ctx, &BenchSetup) + Send + Sync>;

/// The simulated machine: two nodes under `cost`.
fn sim(cost: CostModel) -> impl FnOnce(Body<Ctx>) -> Report {
    move |body| Sim::new(2).cost_model(cost).run(body)
}

/// Unmeasured iterations before each row's measured ones: they populate the
/// stub cache and the persistent buffers.
const WARMUP: usize = 4;

/// Run a CC++ micro-benchmark on the simulator: `warmup` unmeasured
/// iterations (populating the stub cache and persistent buffers), then
/// `iters` measured ones. `units_per_iter` scales per-element rows.
pub fn measure_ccxx(
    cfg: CcxxConfig,
    cost: CostModel,
    warmup: usize,
    iters: usize,
    units_per_iter: f64,
    op: Op,
) -> Measured {
    let op = move |c: &Ctx, s: &BenchSetup| op(c, s);
    let d = measure(sim(cost), Some(cfg), warmup, iters, |_| {}, op);
    reduce(&d, iters as f64 * units_per_iter)
}

/// Run a Split-C micro-benchmark on the simulator (same protocol).
pub fn measure_splitc(warmup: usize, iters: usize, units_per_iter: f64, op: Op) -> Measured {
    let op = move |c: &Ctx, s: &BenchSetup| op(c, s);
    let d = measure(sim(CostModel::default()), None, warmup, iters, |_| {}, op);
    reduce(&d, iters as f64 * units_per_iter)
}

/// The one Table 4 harness, run on every node of the machine `machine`
/// starts, in CC++ with configuration `cfg` or, when it is `None`, in
/// Split-C: each node runs `prepare` after the runtime's init, node 0 runs
/// `op` `warmup` times, then `iters` measured times, and stops node 1's
/// spin-poll loop with a last null round trip. Returns the measured interval.
fn measure<F: Fabric>(
    machine: impl FnOnce(Body<F>) -> Report,
    cfg: Option<CcxxConfig>,
    warmup: usize,
    iters: usize,
    prepare: impl Fn(&F) + Send + Sync + 'static,
    op: impl Fn(&F, &BenchSetup) + Send + Sync + 'static,
) -> Report {
    let result = Arc::new(Mutex::new(None));
    let r2 = Arc::clone(&result);
    let stop = Arc::new(AtomicBool::new(false));
    machine(Box::new(move |ctx| {
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
        prepare(&ctx);
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
            *r2.lock() = Some(s0.until(&ctx.snapshot()));
            stop.store(true, Ordering::Release);
            // Wake the responder's spin loop so it can leave.
            match cfg {
                Some(_) => Row::Simple.issue_cc(&ctx, &setup),
                None => Row::Atomic.issue_sc(&ctx, &setup),
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
    }));
    let out = result.lock().take();
    out.expect("benchmark produced no measurement")
}

/// One row of Table 4, or of the Optimistic Active Messages comparison: its
/// ops, units and the paper's columns, as data.
#[derive(Clone, Copy, Debug)]
enum Row {
    Simple,
    Blocking,
    OneWord,
    TwoWord,
    Threaded,
    Atomic,
    Gp,
    BulkWrite,
    BulkRead,
    Prefetch,
    /// A possibly-blocking `victim` method, called threaded.
    OamThreaded,
    /// A non-blocking `victim` method, called optimistically.
    OamInline,
    /// A possibly-blocking `victim` method, called optimistically.
    OamAbort,
}

impl Row {
    /// Table 4's rows, in the paper's order.
    const TABLE4: [Row; 10] = [
        Row::Simple,
        Row::Blocking,
        Row::OneWord,
        Row::TwoWord,
        Row::Threaded,
        Row::Atomic,
        Row::Gp,
        Row::BulkWrite,
        Row::BulkRead,
        Row::Prefetch,
    ];

    /// Optimistic Active Messages (extension; §7 related work): threaded
    /// dispatch against optimistic dispatch of a non-blocking and of a
    /// possibly-blocking method.
    const OAM: [Row; 3] = [Row::OamThreaded, Row::OamInline, Row::OamAbort];

    fn name(self) -> &'static str {
        match self {
            Row::Simple => "0-Word Simple",
            Row::Blocking => "0-Word",
            Row::OneWord => "1-Word",
            Row::TwoWord => "2-Word",
            Row::Threaded => "0-Word Threaded",
            Row::Atomic => "0-Word Atomic",
            Row::Gp => "GP 2-Word R/W",
            Row::BulkWrite => "BulkWrite 40-Word",
            Row::BulkRead => "BulkRead 40-Word",
            Row::Prefetch => "Prefetch 20-Word",
            Row::OamThreaded => "threaded (always spawns)",
            Row::OamInline => "optimistic, non-blocking method (runs on the stack)",
            Row::OamAbort => "optimistic, blocking method (aborts to a thread)",
        }
    }

    /// Reported units per iteration: one element each for the prefetch row.
    fn units(self) -> f64 {
        if let Row::Prefetch = self {
            20.0
        } else {
            1.0
        }
    }

    /// The paper's CC++ columns (total, AM, threads, runtime) in µs; the
    /// OAM rows are not in the paper.
    fn paper_cc(self) -> Option<(f64, f64, f64, f64)> {
        Some(match self {
            Row::Simple => (67.0, 55.0, 4.0, 8.0),
            Row::Blocking => (77.0, 55.0, 12.0, 10.0),
            Row::OneWord => (94.0, 70.0, 12.0, 12.0),
            Row::TwoWord => (95.0, 70.0, 12.0, 13.0),
            Row::Threaded => (87.0, 55.0, 21.0, 11.0),
            Row::Atomic => (88.0, 55.0, 21.0, 12.0),
            Row::Gp => (92.0, 55.0, 21.0, 16.0),
            Row::BulkWrite => (154.0, 70.0, 21.0, 63.0),
            Row::BulkRead => (177.0, 70.0, 21.0, 86.0),
            Row::Prefetch => (35.4, 5.3, 21.0, 9.1),
            Row::OamThreaded | Row::OamInline | Row::OamAbort => return None,
        })
    }

    /// The paper's Split-C columns (total, AM, runtime) in µs, for the rows
    /// that have a Split-C op.
    fn paper_sc(self) -> Option<(f64, f64, f64)> {
        match self {
            Row::Atomic => Some((56.0, 53.0, 3.0)),
            Row::Gp => Some((57.0, 53.0, 4.0)),
            Row::BulkWrite => Some((74.0, 70.0, 4.0)),
            Row::BulkRead => Some((75.0, 70.0, 5.0)),
            Row::Prefetch => Some((12.1, 6.2, 5.9)),
            _ => None,
        }
    }

    /// Each node's setup after the runtime's init: the OAM rows register
    /// their `victim` method.
    fn prepare<F: Fabric>(self, ctx: &F) {
        if let Row::OamThreaded | Row::OamInline | Row::OamAbort = self {
            let may_block = !matches!(self, Row::OamInline);
            cx::register_method_full(ctx, cx::DEFAULT_PROGRAM, "victim", may_block, |_, _| {
                cx::RmiRet::null()
            });
        }
    }

    /// One iteration of the row's CC++ op, on node 0.
    fn issue_cc<F: Fabric>(self, ctx: &F, s: &BenchSetup) {
        let call = |method, payload, mode| _ = cx::rmi(ctx, 1, method, &[], payload, mode);
        let words = |n| {
            let mut b = MarshalBuf::new();
            for w in [7u32, 9].iter().take(n) {
                b.push(ctx, w);
            }
            Some(b)
        };
        match self {
            Row::Simple => call(cx::M_NULL, None, CallMode::Simple),
            Row::Blocking => call(cx::M_NULL, None, CallMode::Blocking),
            Row::OneWord => call(cx::M_NULL, words(1), CallMode::Blocking),
            Row::TwoWord => call(cx::M_NULL, words(2), CallMode::Blocking),
            Row::Threaded => call(cx::M_NULL, None, CallMode::Threaded),
            Row::Atomic => call(cx::M_NULL, None, CallMode::Atomic),
            Row::Gp => _ = cx::gp_read(ctx, s.remote[0]),
            Row::BulkWrite => cx::bulk_put(ctx, s.remote[0], &[2.5; 20]),
            Row::BulkRead => _ = cx::bulk_get(ctx, s.remote[0], 20),
            Row::Prefetch => _ = cx::prefetch(ctx, &s.remote),
            Row::OamThreaded => call("victim", None, CallMode::Threaded),
            Row::OamInline | Row::OamAbort => call("victim", None, CallMode::Optimistic),
        }
    }

    /// One iteration of the row's Split-C op, on node 0 (only rows with
    /// [`Row::paper_sc`] have one).
    fn issue_sc<F: Fabric>(self, ctx: &F, s: &BenchSetup) {
        match self {
            Row::Atomic => _ = sc::atomic_rpc(ctx, 1, sc::ATOMIC_NULL, [0; 3]),
            Row::Gp => _ = sc::read(ctx, s.remote_sc[0]),
            Row::BulkWrite => sc::bulk_write(ctx, s.remote_sc[0], &[2.5; 20]),
            Row::BulkRead => _ = sc::bulk_read(ctx, s.remote_sc[0], 20),
            Row::Prefetch => {
                let handles: Vec<_> = s.remote_sc.iter().map(|&gp| sc::get(ctx, gp)).collect();
                sc::sync(ctx);
                handles.iter().for_each(|h| _ = h.value());
            }
            _ => unreachable!("{} has no Split-C op", self.name()),
        }
    }

    /// The measured interval of the row's CC++ op under `cfg` or, when it
    /// is `None`, of its Split-C op, on `machine`.
    fn measure<F: Fabric>(
        self,
        machine: impl FnOnce(Body<F>) -> Report,
        cfg: Option<CcxxConfig>,
        iters: usize,
    ) -> Report {
        let cc = cfg.is_some();
        let op = move |ctx: &F, s: &BenchSetup| match cc {
            true => self.issue_cc(ctx, s),
            false => self.issue_sc(ctx, s),
        };
        let prepare = move |ctx: &F| self.prepare(ctx);
        measure(machine, cfg, WARMUP, iters, prepare, op)
    }
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
    let per_unit = |row: Row, d: Report| reduce(&d, iters as f64 * row.units());
    Row::TABLE4
        .into_iter()
        .map(|row| Table4Row {
            name: row.name(),
            cc: per_unit(
                row,
                row.measure(sim(cost.clone()), Some(cfg.clone()), iters),
            ),
            sc: row
                .paper_sc()
                .map(|_| per_unit(row, row.measure(sim(CostModel::default()), None, iters))),
            paper_cc: row.paper_cc().expect("every Table 4 row is in the paper"),
            paper_sc: row.paper_sc(),
        })
        .collect()
}

/// Optimistic Active Messages comparison (extension; §7 related work):
/// null-RMI totals for threaded dispatch vs optimistic dispatch of a
/// non-blocking and a possibly-blocking method. Returns (label, µs) rows.
pub fn measure_oam(iters: usize) -> Vec<(&'static str, f64)> {
    Row::OAM
        .into_iter()
        .map(|row| {
            let d = row.measure(sim(CostModel::default()), Some(CcxxConfig::tham()), iters);
            (row.name(), reduce(&d, iters as f64).total_us)
        })
        .collect()
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
    use mpmd_am::NetProfile;
    use mpmd_ccxx::CcxxCosts;
    use mpmd_sim::{LocalFabric, LocalFabricBuilder, ThreadCosts, Time, TraceConfig, TraceEvent};
    use mpmd_splitc::ScCosts;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// Measured iterations per op in these tests.
    const ITERS: usize = 40;

    /// The Table 4 suite, run once for every test that reads it.
    fn suite() -> &'static [Table4Row] {
        static SUITE: OnceLock<Vec<Table4Row>> = OnceLock::new();
        SUITE.get_or_init(|| run_table4(ITERS))
    }

    fn row(name: &str) -> &'static Table4Row {
        suite().iter().find(|r| r.name == name).unwrap()
    }

    /// The wall-clock machine: two nodes on OS threads.
    fn local(cost: CostModel) -> impl FnOnce(Body<LocalFabric>) -> Report {
        move |body| LocalFabricBuilder::new(2).cost_model(cost).run(body)
    }

    const CC: &str = "cc++";
    const SC: &str = "split-c";

    /// How many times each charge is made, by `(bucket index, ns)`.
    type Fold = BTreeMap<(usize, Time), u64>;

    /// What one row's op charges on the simulator under the default costs,
    /// in one language (CC++ when `cfg` is set), per iteration.
    struct Charges {
        row: Row,
        lang: &'static str,
        cfg: Option<CcxxConfig>,
        /// Messages and payload bytes: counts, not charges. Each message
        /// runs one handler.
        wire: [u64; 2],
        /// The charge vector.
        per_op: Fold,
        /// How many µs per unit the row's Threads and Runtime columns sit
        /// above the paper's (zero for the rows the paper does not have).
        off: (f64, f64),
    }

    /// Table 4 as equations: every row, in each of its languages, in
    /// [`Row::TABLE4`] then [`Row::OAM`] order, each charge written from the
    /// cost field that makes it (charges of equal value add). Where a row's
    /// Threads or Runtime column is not the paper's, the comment above it
    /// names the charges that differ.
    #[rustfmt::skip]
    fn table4_charges() -> Vec<Charges> {
        use Row::*;
        let (t, c, s) = (ThreadCosts::default(), CcxxCosts::default(), ScCosts::default());
        let (bp, td, extra) = (c.blocking_plumbing, c.threaded_dispatch, c.extra_copy_charge(168));
        // A word argument, and one side of a 20-double one: serialize calls,
        // and a copy of the doubles with their 8-byte length.
        let word = c.serialize_per_elem + c.copy_charge(4);
        let array = 20 * c.serialize_per_elem + c.copy_charge(168);
        // A warm RMI's runtime charges, issue to reply, then `more`.
        let null = [c.send_issue, c.stub_lookup, c.recv_dispatch, c.reply_issue, c.reply_dispatch];
        let rmi = |more: &[Time]| [&null[..], more].concat();
        let pf_cc = [c.gp_async_issue, c.gp_async_complete, c.gp_async_serve, c.gp_async_reply];
        let pf_sc = [s.split_issue, s.split_complete, s.serve_access].repeat(20);
        // A row in `lang`: `msgs` messages (`bulk` of them bulk) with `bytes`
        // of payload, its runtime charges `rt`, its thread creates, switches
        // and sync ops `thr`, and how far its columns sit `off` the paper's.
        let row = |lang, row, [msgs, bytes, bulk]: [u64; 3], rt: &[Time], thr: [u64; 3], off| {
            let p = if lang == CC { NetProfile::sp_am_ccxx() } else { NetProfile::sp_am_splitc() };
            let mut per_op = Fold::new();
            let mut add = |b: Bucket, ns, n| if n > 0 { *per_op.entry((b.index(), ns)).or_insert(0) += n };
            add(Bucket::Net, p.send_charge(false), msgs - bulk);
            add(Bucket::Net, p.send_charge(true), bulk);
            add(Bucket::Net, p.recv_charge(), msgs);
            add(Bucket::ThreadMgmt, t.create, thr[0]);
            add(Bucket::ThreadMgmt, t.context_switch, thr[1]);
            add(Bucket::ThreadSync, t.sync_op, thr[2]);
            rt.iter().for_each(|&ns| add(Bucket::Runtime, ns, 1));
            let cfg = (lang == CC).then(CcxxConfig::tham);
            Charges { row, lang, cfg, wire: [msgs, bytes], per_op, off }
        };
        let cc = |r, wire, rt: &[Time], thr, off| row(CC, r, wire, rt, thr, off);
        let sc = |r, wire, rt: &[Time], off| row(SC, r, wire, rt, [0; 3], off);
        let table = vec![
            cc(Simple, [2, 96, 0], &rmi(&[]), [0, 0, 10], (0.0, 0.0)),
            // Threads: 3 switches (the caller's wait blocks and resumes, the poller
            // wakes with the reply) and 16 sync ops (the wait and the reply's
            // write add 6 to Simple's 10); the paper's 12 µs is 1 switch, 15 syncs.
            cc(Blocking, [2, 96, 0], &rmi(&[bp]), [0, 3, 16], (12.4, 0.0)),
            // Threads as 0-Word. Runtime: the caller serializes each word once;
            // the null method unmarshals none.
            cc(OneWord, [2, 100, 1], &rmi(&[bp, word]), [0, 3, 16], (12.4, -0.87)),
            cc(TwoWord, [2, 104, 1], &rmi(&[bp, word, word]), [0, 3, 16], (12.4, -0.74)),
            // Threads: 0-Word's and the method thread's create; the paper's 21 µs
            // is 2 switches, 1 create and 10 sync ops.
            cc(Threaded, [2, 96, 0], &rmi(&[bp, td]), [1, 3, 16], (8.4, 0.0)),
            // Threads as 0-Word Threaded, and the method lock's 2 sync ops.
            cc(Atomic, [2, 96, 0], &rmi(&[bp, td, c.atomic_lookup]), [1, 3, 18], (9.2, 0.0)),
            // Runtime: and the owner's `atomic_dispatch`.
            sc(Atomic, [2, 96, 0], &[s.atomic_issue, s.atomic_complete, s.atomic_dispatch], (0.0, 0.5)),
            // Threads: the owner's access thread and 10 sync ops, as the paper
            // has, but 3 switches for its 2.
            cc(Gp, [2, 96, 0], &[c.gp_issue, c.gp_complete, c.gp_serve, c.gp_reply], [1, 3, 10], (6.0, 0.0)),
            // Runtime: and the owner's `serve_access`.
            sc(Gp, [2, 96, 0], &[s.sync_access_issue, s.sync_access_complete, s.serve_access], (0.0, 0.5)),
            // Threads as 0-Word Threaded. Runtime: a threaded call's 11 µs and, each
            // side, 20 serialize calls and a copy of 168 bytes, not the doubles' 160.
            cc(BulkWrite, [2, 264, 1], &rmi(&[bp, td, array, array]), [1, 3, 16], (8.4, 1.12)),
            // Runtime: and the owner's `serve_access`.
            sc(BulkWrite, [2, 256, 1], &[s.bulk_issue, s.bulk_complete, s.serve_access], (0.0, 0.5)),
            // As BulkWrite, and the reply's second copy is of 168 bytes too.
            cc(BulkRead, [2, 264, 1], &rmi(&[bp, td, array, array, extra]), [1, 3, 16], (8.4, 1.64)),
            // Runtime: BulkWrite's, where the paper has 1 µs more.
            sc(BulkRead, [2, 256, 1], &[s.bulk_issue, s.bulk_complete, s.serve_access], (0.0, -0.5)),
            // Per element, threads: a `parfor` thread, 2.2 switches and 10 sync
            // ops; runtime: 9 µs, where the paper has 9.1.
            cc(Prefetch, [40, 1920, 0], &pf_cc.repeat(20), [20, 44, 200], (1.2, -0.1)),
            // Runtime per element: and the owner's `serve_access`, and a twentieth
            // of one `sync_call`.
            sc(Prefetch, [40, 1920, 0], &[&[s.sync_call][..], &pf_sc].concat(), (0.0, 0.35)),
            cc(OamThreaded, [2, 96, 0], &rmi(&[bp, td]), [1, 3, 16], (0.0, 0.0)),
            cc(OamInline, [2, 96, 0], &rmi(&[bp, c.oam_check]), [0, 3, 16], (0.0, 0.0)),
            cc(OamAbort, [2, 96, 0], &rmi(&[bp, c.oam_check, c.oam_abort, td]), [1, 3, 16], (0.0, 0.0)),
        ];
        let langs = |r: Row| [(r.name(), CC)].into_iter().chain(r.paper_sc().map(|_| (r.name(), SC)));
        let pairs = Row::TABLE4.into_iter().chain(Row::OAM).flat_map(langs);
        assert!(table.iter().map(|e| (e.row.name(), e.lang)).eq(pairs), "a row in a language is missing");
        table
    }

    /// A fold's thread creates, context switches and sync ops.
    fn thread_ops(fold: &Fold) -> [u64; 3] {
        let t = ThreadCosts::default();
        let at = |b: Bucket, ns| fold.get(&(b.index(), ns)).copied().unwrap_or(0);
        let mgmt = [t.create, t.context_switch].map(|ns| at(Bucket::ThreadMgmt, ns));
        [mgmt[0], mgmt[1], at(Bucket::ThreadSync, t.sync_op)]
    }

    /// The ns a fold charges to `b`.
    fn bucket_ns(fold: &Fold, b: Bucket) -> Time {
        let of_b = fold.iter().filter(|(k, _)| k.0 == b.index());
        of_b.map(|(k, n)| k.1 * n).sum()
    }

    /// Every charge of a traced run of `row` on the simulator, and the run's
    /// interval report.
    fn traced(row: Row, cfg: Option<CcxxConfig>, iters: usize) -> (Fold, Report) {
        let fold = Arc::new(Mutex::new(Fold::new()));
        let into = Arc::clone(&fold);
        let machine = move |body| {
            let report = Sim::new(2).tracing(TraceConfig::new()).run(body);
            let log = report.trace.as_ref().expect("a traced run");
            assert_eq!(log.total_dropped(), 0, "the trace dropped records");
            for rec in log.events() {
                if let TraceEvent::Charge { bucket, ns } = rec.event {
                    *into.lock().entry((bucket.index(), ns)).or_insert(0) += 1;
                }
            }
            report
        };
        let interval = row.measure(machine, cfg, iters);
        let fold = std::mem::take(&mut *fold.lock());
        (fold, interval)
    }

    /// The table is what the simulator charges. Each row, in each of its
    /// languages, runs traced `ITERS` and `2 * ITERS` times; the difference
    /// of the two runs' charges (set-up and teardown cancel) is its vector
    /// `ITERS` times over, exactly. The trace and `Stats` agree: that
    /// difference is the `ITERS`-run's interval report in ns per bucket and
    /// in thread creates, switches and sync ops. And each row's Threads and
    /// Runtime columns sit off the paper's by exactly its stated `off`.
    #[test]
    fn table4_charges_match_the_trace() {
        for e in table4_charges() {
            let what = format!("{} ({})", e.row.name(), e.lang);
            let (once, interval) = traced(e.row, e.cfg.clone(), ITERS);
            let (mut diff, _) = traced(e.row, e.cfg.clone(), 2 * ITERS);
            once.iter()
                .for_each(|(k, n)| *diff.entry(*k).or_insert(0) -= n);
            diff.retain(|_, n| *n > 0);
            let mut want = e.per_op.clone();
            want.values_mut().for_each(|n| *n *= ITERS as u64);
            assert_eq!(diff, want, "{what}: charges in {ITERS} ops");

            let st = interval.total_stats();
            let ns = Bucket::ALL.map(|b| bucket_ns(&diff, b));
            assert_eq!(ns, st.bucket_ns, "{what}: trace vs Stats ns");
            let ops = [st.thread_creates, st.context_switches, st.sync_ops];
            assert_eq!(thread_ops(&diff), ops, "{what}: trace vs Stats thread ops");

            let us = |b| to_us(bucket_ns(&e.per_op, b)) / e.row.units();
            let threads = us(Bucket::ThreadMgmt) + us(Bucket::ThreadSync);
            let runtime = us(Bucket::Runtime);
            let paper = match e.lang {
                CC => e.row.paper_cc().map(|p| (p.2, p.3)),
                _ => e.row.paper_sc().map(|p| (0.0, p.2)),
            };
            let (pt, pr) = paper.unwrap_or((threads, runtime));
            let off = (threads - pt, runtime - pr);
            let near = (off.0 - e.off.0).abs() < 1e-9 && (off.1 - e.off.1).abs() < 1e-9;
            assert!(near, "{what}: Threads, Runtime {off:?} off the paper's");
        }
    }

    /// The count gate: every row of [`table4_charges`], in each of its
    /// languages, runs through the one body on the simulator and on
    /// `LocalFabric`. On the simulator its six counts per op are the table's.
    /// Messages, payload bytes, handlers run and thread creates are the
    /// protocol: `LocalFabric` counts the same for every row. Context
    /// switches and sync ops are asserted on `LocalFabric` only where no task
    /// switches (the Split-C rows and 0-Word Simple). Where a CC++ caller
    /// blocks, they depend on whether the reply lands before the caller parks
    /// and on how often CC++'s polling thread finds nothing, which the wall
    /// clock decides; there they are printed, not asserted.
    #[test]
    fn table4_counts_agree_on_both_fabrics() {
        let totals = |d: Report| {
            let t = d.total_stats();
            let wire = [t.msgs_sent, t.bytes_sent, t.handlers_run];
            [wire, [t.thread_creates, t.context_switches, t.sync_ops]].concat()
        };
        for e in table4_charges() {
            let what = format!("{} ({})", e.row.name(), e.lang);
            let per_op = [[e.wire[0], e.wire[1], e.wire[0]], thread_ops(&e.per_op)].concat();
            let want: Vec<_> = per_op.iter().map(|c| c * ITERS as u64).collect();
            let s = totals(
                e.row
                    .measure(sim(CostModel::default()), e.cfg.clone(), ITERS),
            );
            let l = totals(
                e.row
                    .measure(local(CostModel::default()), e.cfg.clone(), ITERS),
            );
            let mean: Vec<_> = l.iter().map(|&c| c as f64 / ITERS as f64).collect();
            eprintln!("{what}: LocalFabric per op {mean:?}");
            assert_eq!(s, want, "{what}: simulator counts");
            let checked = if want[4] == 0 { 6 } else { 4 };
            assert_eq!(l[..checked], want[..checked], "{what}: LocalFabric counts");
        }
    }

    /// The headline calibration test: every Table 4 Total, in each of its
    /// languages, within 15% of the paper's.
    #[test]
    fn table4_totals_match_paper_within_15_percent() {
        for r in suite() {
            let sc = r.sc.as_ref().zip(r.paper_sc);
            let sc = sc.map(|(m, p)| (SC, m.total_us, p.0));
            for (lang, got, paper) in [(CC, r.cc.total_us, r.paper_cc.0)].into_iter().chain(sc) {
                let rel = (got - paper).abs() / paper;
                assert!(
                    rel < 0.15,
                    "{} ({lang}): total {got:.1} vs paper {paper:.1}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn simple_rmi_is_12us_over_raw_am_and_beats_mpl() {
        // "the round-trip time of a 0-Word Simple is only 12 µs slower than
        // the base round-trip time of the AM layer, and 21 µs faster than
        // IBM MPL".
        let simple = row("0-Word Simple");
        let raw_am = 55.0;
        let over = simple.cc.total_us - raw_am;
        assert!((5.0..20.0).contains(&over), "overhead over AM = {over:.1}");
        let mpl = measure_mpl_rtt();
        assert!((mpl - 88.0).abs() < 1.0, "MPL rtt = {mpl:.1}");
        assert!(simple.cc.total_us < mpl);
    }

    #[test]
    fn prefetch_beats_blocking_reads_but_trails_splitc() {
        let pf = row("Prefetch 20-Word");
        let gp = row("GP 2-Word R/W");
        // Latency hiding works...
        assert!(pf.cc.total_us < gp.cc.total_us * 0.6);
        // ...but "the overhead of thread management reduces the
        // effectiveness of latency hiding substantially" vs Split-C.
        let sc_pf = pf.sc.as_ref().unwrap();
        assert!(pf.cc.total_us > 2.0 * sc_pf.total_us);
    }
}
