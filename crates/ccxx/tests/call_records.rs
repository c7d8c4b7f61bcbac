//! The life of an RMI call record (`rmi.rs`), on both fabrics.
//!
//! One record makes the round trip and is recycled **by the task that issued
//! the call**, never by the reply handler. These tests hold that rule from
//! the outside: a blocked caller keeps its reply while a sibling calls, a
//! node can call itself, a run that fails with records in flight frees every
//! one of them, and the free list stays node-local and bounded. The request
//! and reply frames carry the call and its return, so a callee has no reason
//! to touch the caller's half of a record, and one that does fails the run.

use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, Marshal, MarshalBuf};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{Sim, ACROSS_NODES};
use mpmd_threads as thr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One `#[test]` per fabric for a program generic over it.
macro_rules! on_both_fabrics {
    ($($program:ident => $sim:ident, $local:ident;)*) => {$(
        #[test]
        fn $sim() {
            Sim::new(2).run(|ctx| $program(&ctx));
        }

        #[test]
        fn $local() {
            LocalFabric::run(2, |ctx| $program(&ctx));
        }
    )*};
}

on_both_fabrics! {
    a_blocked_caller_keeps_its_reply
        => a_blocked_caller_keeps_its_reply_sim, a_blocked_caller_keeps_its_reply_local;
    a_node_calls_itself => a_node_calls_itself_sim, a_node_calls_itself_local;
    sequential_calls_reuse_one_record
        => sequential_calls_reuse_one_record_sim, sequential_calls_reuse_one_record_local;
    a_wave_of_callers_bounds_the_free_list
        => a_wave_of_callers_bounds_the_free_list_sim, a_wave_of_callers_bounds_the_free_list_local;
}

fn start<F: Fabric>(ctx: &F) {
    cx::init(ctx, CcxxConfig::tham());
    cx::register_method(ctx, "twice", |_c, a| {
        cx::RmiRet::of_words([a.words[0] * 2, 0, 0, 0])
    });
    cx::barrier(ctx);
}

fn twice<F: Fabric>(ctx: &F, dst: usize, x: u64, mode: CallMode) {
    let r = cx::rmi(ctx, dst, "twice", &[x], None, mode);
    assert_eq!(r.words[0], 2 * x, "{mode:?} twice({x}) on node {dst}");
}

/// A `Blocking` caller that has been woken but has not run yet still owns
/// its record: the sibling's next call must not get it. (Recycling a record
/// in the reply handler fails here with `reply not complete`.)
fn a_blocked_caller_keeps_its_reply<F: Fabric>(ctx: &F) {
    const CALLS: u64 = 2_000;
    start(ctx);
    if ctx.node() == 0 {
        let blocked = thr::spawn(ctx, "blocking-caller", |c| {
            for i in 0..CALLS {
                twice(&c, 1, i, CallMode::Blocking);
            }
        });
        for i in 0..CALLS {
            twice(ctx, 1, 1_000_000 + i, CallMode::Simple);
        }
        blocked.join(ctx);
    }
    cx::finalize(ctx);
}

/// `dst == ctx.node()`: the record's home is also its callee.
fn a_node_calls_itself<F: Fabric>(ctx: &F) {
    start(ctx);
    let me = ctx.node();
    for mode in [CallMode::Simple, CallMode::Blocking, CallMode::Threaded] {
        for i in 0..50 {
            twice(ctx, me, i, mode);
        }
    }
    assert_eq!(cx::debug_call_records(ctx), 1);
    cx::finalize(ctx);
}

/// Records stay home: the caller's node ends with one, the callee's with
/// none, however many calls were made.
fn sequential_calls_reuse_one_record<F: Fabric>(ctx: &F) {
    start(ctx);
    if ctx.node() == 0 {
        for i in 0..20_000 {
            let mode = [CallMode::Simple, CallMode::Blocking][i as usize % 2];
            twice(ctx, 1, i, mode);
        }
    }
    cx::barrier(ctx);
    assert_eq!(cx::debug_call_records(ctx), 1 - ctx.node());
    cx::finalize(ctx);
}

/// The list holds at most as many records as calls were ever in flight at
/// once.
fn a_wave_of_callers_bounds_the_free_list<F: Fabric>(ctx: &F) {
    const WIDTH: u64 = 64;
    start(ctx);
    if ctx.node() == 0 {
        for _wave in 0..3 {
            let callers: Vec<_> = (0..WIDTH)
                .map(|i| thr::spawn(ctx, "caller", move |c| twice(&c, 1, i, CallMode::Threaded)))
                .collect();
            for t in callers {
                t.join(ctx);
            }
        }
        let kept = cx::debug_call_records(ctx);
        assert!((1..=WIDTH as usize).contains(&kept), "{kept} records kept");
    }
    cx::finalize(ctx);
}

// A callee that reaches into a record.

/// A test handler, outside the runtime's ids, that reads the caller's half
/// of the call record its message carries.
const H_TOUCH: am::HandlerId = 200;

/// Node 0 makes its record warm, touches it through a message to itself
/// (its own node may), then sends it to node 1, whose touch must fail the
/// run.
fn a_callee_touches_a_warm_record<F: Fabric>(ctx: &F) {
    start(ctx);
    let touched = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&touched);
    am::register(ctx, H_TOUCH, move |ctx, mut m| {
        cx::debug_touch_record(ctx, &mut m);
        t.fetch_add(1, Ordering::AcqRel);
    });
    cx::barrier(ctx);
    if ctx.node() == 0 {
        twice(ctx, 1, 1, CallMode::Simple);
        twice(ctx, 1, 2, CallMode::Blocking);
        assert_eq!(cx::debug_call_records(ctx), 1, "one warm record");
        cx::debug_send_record(ctx, 0, H_TOUCH);
        cx::spin_until(ctx, || touched.load(Ordering::Acquire) == 1);
        twice(ctx, 1, 3, CallMode::Simple);
        cx::debug_send_record(ctx, 1, H_TOUCH);
    }
    cx::finalize(ctx);
}

fn fails_across_nodes(run: impl FnOnce()) {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("a callee touched the caller's half of a record");
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
    };
    assert_eq!(
        msg,
        format!("a touch from node 1 of another node's state {ACROSS_NODES}")
    );
}

#[test]
fn a_callee_that_touches_a_warm_record_fails_the_run_sim() {
    fails_across_nodes(|| {
        Sim::new(2).run(|ctx| a_callee_touches_a_warm_record(&ctx));
    });
}

#[test]
fn a_callee_that_touches_a_warm_record_fails_the_run_local() {
    fails_across_nodes(|| {
        LocalFabric::run(2, |ctx| a_callee_touches_a_warm_record(&ctx));
    });
}

// A run that fails with records in flight.

/// The system allocator, counting blocks of the sizes the tests below give
/// their request payloads: the only way to watch a `Bytes` being freed.
struct PayloadCounter;

const PAYLOAD_SIZE: usize = 70_001;
const PAYLOAD_SIZES: usize = 6;
static PAYLOAD_ALLOCS: [AtomicU64; PAYLOAD_SIZES] = [const { AtomicU64::new(0) }; PAYLOAD_SIZES];
static PAYLOAD_FREES: [AtomicU64; PAYLOAD_SIZES] = [const { AtomicU64::new(0) }; PAYLOAD_SIZES];

fn count(size: usize, counts: &[AtomicU64; PAYLOAD_SIZES]) {
    if let Some(n) = size.checked_sub(PAYLOAD_SIZE).and_then(|i| counts.get(i)) {
        n.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is passed through to `System` unchanged.
unsafe impl GlobalAlloc for PayloadCounter {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size(), &PAYLOAD_ALLOCS);
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        count(l.size(), &PAYLOAD_FREES);
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOC: PayloadCounter = PayloadCounter;

/// An argument whose marshalled buffer is one block of exactly the given
/// size, which [`PayloadCounter`] counts.
struct Counted(usize);

impl Marshal for Counted {
    fn write(&self, out: &mut Vec<u8>) {
        out.reserve_exact(self.0);
        out.push(0xC0);
    }

    fn read(_input: &mut &[u8]) -> Self {
        unreachable!("no stub unmarshals it")
    }
}

/// Node 0's root calls `echo` in `mode`, then `boom`, whose stub panics,
/// while `siblings` threads keep `Blocking` `echo` calls in flight. `echo`
/// sends the request's payload back, so the payload is in the record on
/// every leg of the trip, including while it is parked for its caller.
fn a_panicking_stub<F: Fabric>(ctx: &F, mode: CallMode, siblings: usize, size: usize) {
    cx::init(ctx, CcxxConfig::tham());
    cx::register_method(ctx, "echo", |_c, a| {
        cx::RmiRet::of_data(a.data.expect("echo takes a payload"))
    });
    cx::register_method(ctx, "boom", |_c, _a| panic!("the stub went boom"));
    cx::barrier(ctx);
    if ctx.node() == 0 {
        let call = move |c: &F, method: &str, mode: CallMode| {
            let mut args = MarshalBuf::new();
            args.push(c, &Counted(size));
            cx::rmi(c, 1, method, &[], Some(args), mode)
        };
        for _ in 0..siblings {
            thr::spawn(ctx, "sibling", move |c| loop {
                call(&c, "echo", CallMode::Blocking);
            });
        }
        for _ in 0..20 {
            call(ctx, "echo", mode);
        }
        call(ctx, "boom", mode);
        unreachable!("the call into a panicking stub returned");
    }
    cx::finalize(ctx);
}

/// `run` must fail with the stub's message within 10 s, and by then have
/// freed every payload (and so every record that held one) exactly once.
fn fails_and_frees(slot: usize, run: impl FnOnce(usize) + Send + 'static) {
    let size = PAYLOAD_SIZE + slot;
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(size)));
        tx.send(outcome).expect("the test is waiting");
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the failed run did not return within 10 s")
        .expect_err("a panicking stub must fail the run");
    runner.join().expect("the runner caught the panic");
    let msg = payload.downcast::<&str>().expect("the stub's own panic");
    assert_eq!(*msg, "the stub went boom");
    let allocs = PAYLOAD_ALLOCS[slot].load(Ordering::Relaxed);
    let frees = PAYLOAD_FREES[slot].load(Ordering::Relaxed);
    assert!(allocs > 20, "only {allocs} payloads were sent");
    assert_eq!(frees, allocs, "payloads freed vs allocated");
}

/// Only the root calls here: the simulator abandons the stacks of the tasks
/// still parked when a run fails, so what a parked sibling holds is never
/// dropped, whatever the runtime does.
#[test]
fn a_panicking_stub_fails_the_run_and_frees_every_record_sim() {
    for (slot, mode) in [CallMode::Simple, CallMode::Blocking, CallMode::Threaded]
        .into_iter()
        .enumerate()
    {
        fails_and_frees(slot, move |size| {
            Sim::new(2).run(move |ctx| a_panicking_stub(&ctx, mode, 0, size));
        });
    }
}

/// `LocalFabric` unwinds every parked task of a failed run, so a sibling that
/// was woken for a reply it never got to take must not leak it: a record
/// parked in its cell may not keep that cell alive.
#[test]
fn a_panicking_stub_fails_the_run_and_frees_every_record_local() {
    for (slot, mode) in [CallMode::Simple, CallMode::Blocking, CallMode::Threaded]
        .into_iter()
        .enumerate()
    {
        fails_and_frees(3 + slot, move |size| {
            LocalFabric::run(2, move |ctx| a_panicking_stub(&ctx, mode, 3, size));
        });
    }
}
