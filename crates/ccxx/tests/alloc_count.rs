//! Zero-allocation proof for the warm null RMI and global-pointer access,
//! on both fabrics.
//!
//! The AM fast path is proven allocation-free in `crates/sim/tests` and
//! `crates/fabric/tests`; this extends the guarantee one layer up. A call
//! record (`mpmd_am::CallRecord`, `crates/am/src/reply.rs`) makes the round
//! trip and is recycled by the caller, so after warm-up a `Simple` or
//! `Blocking` null RMI performs **zero** heap allocations on the calling node
//! and on the called node, and
//! a `Threaded`/`Atomic` one, or a `gp_read`/`gp_write`/`gp_read3` (which
//! ride the same record), performs none on the caller and no more on the
//! callee than starting the method or access thread costs by itself.
//!
//! Counts are per OS thread ([`CountingAlloc`]'s docs say why). Node 1's
//! root task serves every request itself (it spins, so the polling thread
//! defers), and its thread's count is read by a `mark` method that node 0
//! calls right before and right after the measured calls; on `LocalFabric`
//! that thread is node 1 and nothing else. Under the simulator's fiber
//! backend both nodes share the one thread, so there the "caller" count
//! already includes the callee.

use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, CxPtr};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{thread_allocs, CountingAlloc, Sim};
use mpmd_threads as thr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP: usize = 300;
const MEASURED: usize = 1_000;

/// Allocation counts over [`MEASURED`] operations.
#[derive(Default)]
struct Counts {
    /// Node 0's thread, around its calls.
    caller: AtomicU64,
    /// Node 1's thread, as `mark` read it before and after serving them.
    callee_marks: [AtomicU64; 2],
    marks: AtomicUsize,
    /// Node 1's thread, around as many spawn + join pairs of an empty task.
    bare_spawn_join: AtomicU64,
}

impl Counts {
    fn caller(&self) -> u64 {
        self.caller.load(Ordering::Acquire)
    }

    fn callee(&self) -> u64 {
        let [before, after] = &self.callee_marks;
        after.load(Ordering::Acquire) - before.load(Ordering::Acquire)
    }

    fn bare_spawn_join(&self) -> u64 {
        self.bare_spawn_join.load(Ordering::Acquire)
    }
}

/// What node 0 does to node 1, [`MEASURED`] times after [`WARMUP`].
#[derive(Copy, Clone, Debug)]
enum Op {
    NullRmi(CallMode),
    GpRead,
    GpWrite,
    GpRead3,
}

fn calls<F: Fabric>(ctx: &F, n: usize, op: Op, at: CxPtr) {
    for _ in 0..n {
        match op {
            Op::NullRmi(mode) => drop(cx::rmi(ctx, 1, cx::M_NULL, &[], None, mode)),
            Op::GpRead => assert_eq!(cx::gp_read(ctx, at), 0.5),
            Op::GpWrite => cx::gp_write(ctx, at, 0.5),
            Op::GpRead3 => assert_eq!(cx::gp_read3(ctx, at), [0.5; 3]),
        }
    }
}

fn spawn_joins<F: Fabric>(ctx: &F, n: usize) {
    for _ in 0..n {
        thr::spawn(ctx, "rmi-method", |_| {}).join(ctx);
    }
}

fn program<F: Fabric>(ctx: &F, op: Op, counts: &Arc<Counts>) {
    cx::init(ctx, CcxxConfig::tham());
    let at = CxPtr {
        node: 1,
        region: cx::alloc_region(ctx, 3, 0.5),
        offset: 0,
    };
    let c = Arc::clone(counts);
    cx::register_method(ctx, "mark", move |_ctx, _args| {
        let i = c.marks.fetch_add(1, Ordering::AcqRel);
        c.callee_marks[i].store(thread_allocs(), Ordering::Release);
        cx::RmiRet::null()
    });
    if ctx.node() == 1 {
        spawn_joins(ctx, WARMUP);
        let before = thread_allocs();
        spawn_joins(ctx, MEASURED);
        counts
            .bare_spawn_join
            .store(thread_allocs() - before, Ordering::Release);
    }
    cx::barrier(ctx);
    if ctx.node() == 0 {
        calls(ctx, WARMUP, op, at);
        cx::rmi(ctx, 1, "mark", &[], None, CallMode::Simple);
        let before = thread_allocs();
        calls(ctx, MEASURED, op, at);
        counts
            .caller
            .store(thread_allocs() - before, Ordering::Release);
        cx::rmi(ctx, 1, "mark", &[], None, CallMode::Simple);
    } else {
        let c = Arc::clone(counts);
        cx::spin_until(ctx, move || c.marks.load(Ordering::Acquire) == 2);
    }
    cx::finalize(ctx);
}

fn on_sim(op: Op) -> Arc<Counts> {
    let counts = Arc::new(Counts::default());
    let c = Arc::clone(&counts);
    Sim::new(2).run(move |ctx| program(&ctx, op, &c));
    counts
}

fn on_local(op: Op) -> Arc<Counts> {
    let counts = Arc::new(Counts::default());
    let c = Arc::clone(&counts);
    LocalFabric::run(2, move |ctx| program(&ctx, op, &c));
    counts
}

#[test]
fn inline_null_rmi_allocates_nothing() {
    for mode in [CallMode::Simple, CallMode::Blocking] {
        let op = Op::NullRmi(mode);
        for (fabric, counts) in [("sim", on_sim(op)), ("local", on_local(op))] {
            assert_eq!(
                (counts.caller(), counts.callee()),
                (0, 0),
                "{fabric} {op:?}: (caller, callee) allocations over {MEASURED} warm calls"
            );
        }
    }
}

/// `op` starts a thread at the callee: nothing is allocated on the caller,
/// and no more on the callee than by as many bare spawn + join pairs.
fn allocates_only_to_start_a_thread(op: Op) {
    let counts = on_local(op);
    let bare = counts.bare_spawn_join();
    assert_eq!(counts.caller(), 0, "local {op:?}: caller");
    assert!(
        counts.callee() <= bare,
        "local {op:?}: callee made {} allocations over {MEASURED} calls, \
         {MEASURED} bare spawn + join pairs make {bare}",
        counts.callee()
    );
    // One thread runs the whole simulation under the fiber backend, so the
    // caller's count holds the callee's too.
    let counts = on_sim(op);
    let bare = counts.bare_spawn_join();
    assert!(
        counts.caller() <= bare && counts.callee() <= bare,
        "sim {op:?}: (caller, callee) made ({}, {}) allocations over {MEASURED} \
         calls, {MEASURED} bare spawn + join pairs make {bare}",
        counts.caller(),
        counts.callee()
    );
}

#[test]
fn threaded_null_rmi_allocates_only_to_start_the_method_thread() {
    for mode in [CallMode::Threaded, CallMode::Atomic] {
        allocates_only_to_start_a_thread(Op::NullRmi(mode));
    }
}

#[test]
fn gp_access_allocates_only_to_start_the_access_thread() {
    for op in [Op::GpRead, Op::GpWrite, Op::GpRead3] {
        allocates_only_to_start_a_thread(op);
    }
}
