//! Runtime lifecycle: initialization, the polling thread, regions, built-in
//! methods, and collective helpers.

use crate::config::CcxxConfig;
use crate::marshal::{MarshalBuf, UnmarshalBuf};
use crate::rmi::{register_rmi_handlers, rmi, spin_wait, CallMode, RmiRet};
use crate::state::{CcxxState, CxPtr};
use mpmd_am as am;
use mpmd_fabric::Fabric;
use mpmd_sim::Bucket;
use std::sync::atomic::Ordering;

/// Built-in method names (the runtime library linked into every program).
pub const M_NULL: &str = "__null";
pub const M_GET: &str = "__get";
pub const M_PUT: &str = "__put";
pub const M_GET_FLAT: &str = "__getf";
pub const M_PUT_FLAT: &str = "__putf";
pub const M_ADD_F64: &str = "__addf";
pub const M_ADD3_F64: &str = "__add3f";

/// Initialize the CC++ runtime on this node: AM endpoint, handlers, built-in
/// methods, and the polling thread. Collective; ends with a barrier.
pub fn init<F: Fabric>(ctx: &F, config: CcxxConfig) {
    am::init(ctx, config.profile.clone());
    if let Some(cfg) = config.coalescing.clone() {
        am::enable_coalescing(ctx, cfg);
    }
    let interrupts = config.interrupt_cost.is_some();
    CcxxState::get(ctx).set_config(config);
    am::register_barrier_handlers(ctx);
    register_rmi_handlers(ctx);
    crate::gp::register_gp_handlers(ctx);
    register_builtins(ctx);
    start_polling_thread(ctx, interrupts);
    am::barrier(ctx);
}

/// Shut the runtime down: waits for all nodes (barrier), then stops this
/// node's polling thread so the simulation can terminate.
pub fn finalize<F: Fabric>(ctx: &F) {
    barrier(ctx);
    let st = CcxxState::get(ctx);
    st.poller_stop.store(true, Ordering::Release);
    if let Some(&t) = st.poller.get() {
        ctx.unpark(t);
    }
}

/// Global barrier (the experiment harnesses use it to align phases; CC++
/// programs would synchronize through sync variables and RMIs, but the
/// applications here mirror the structure of their Split-C originals, which
/// the paper did too: "the CC++ version of these applications is heavily
/// based on the original Split-C implementations"). On exit, commits the
/// accumulates the `__addf` / `__add3f` stubs staged, in canonical order.
/// Every staged update was acknowledged before its caller entered the
/// barrier, so the set is complete here. The commit costs nothing: the stub
/// charged its dispatch and lock costs when it ran.
pub fn barrier<F: Fabric>(ctx: &F) {
    am::barrier(ctx);
    CcxxState::get(ctx).memory.commit_staged(ctx);
}

/// Service pending messages from the application (poll point).
pub fn poll<F: Fabric>(ctx: &F) {
    am::poll(ctx);
}

/// Spin-poll until `pred` (used by benchmark responders; costs no thread
/// operations and keeps the polling thread deferring).
pub fn spin_until<F: Fabric>(ctx: &F, pred: impl FnMut() -> bool) {
    spin_wait(ctx, pred);
}

/// "Due to the high cost of software interrupts on message arrival on the
/// IBM SP, message reception is based on polling that occurs on a node every
/// time a message is sent. In order to avoid deadlocks when there is no
/// runnable thread, a polling thread is forked at initialization."
///
/// The polling thread defers to any spin-polling task and charges one
/// context switch per wake-up with work ("75-85% of [thread-management]
/// cost is due to context switches, a large fraction of which can be
/// attributed to the polling thread"). Under interrupt-driven reception the
/// servicing still happens here but the switches are not charged — the
/// interrupt cost is charged per message instead.
fn start_polling_thread<F: Fabric>(ctx: &F, interrupts: bool) {
    // The polling thread is "forked at initialization" — account its
    // creation like any other thread.
    let t = mpmd_threads::spawn(ctx, "ccxx-poller", move |cctx| {
        let st = CcxxState::get(&cctx);
        loop {
            if st.poller_stop.load(Ordering::Acquire) {
                return;
            }
            cctx.park_for_inbox();
            if st.poller_stop.load(Ordering::Acquire) {
                return;
            }
            if st.spinners.load(Ordering::Acquire) > 0 {
                // Someone is actively polling; let them service the queue.
                cctx.yield_now();
                continue;
            }
            // "ccxx.poll" covers one polling-thread wake-up with work: the
            // charged context switch plus the handlers the poll runs.
            let _sp = cctx.span("ccxx.poll");
            if !interrupts {
                mpmd_threads::charge_context_switch(&cctx);
            }
            am::poll(&cctx);
        }
    });
    let fresh = CcxxState::get(ctx).poller.set(t.id()).is_ok();
    assert!(fresh, "ccxx::init started a second polling thread");
}

/// Allocate a data region of `len` doubles on this node (the state of a
/// processor object reachable through global pointers).
pub fn alloc_region<F: Fabric>(ctx: &F, len: usize, fill: f64) -> u32 {
    CcxxState::get(ctx).memory.alloc(ctx, len, fill)
}

/// Run `f` over a local region (local computation; charges nothing itself).
/// The node's regions are one node-local table, so `f` must not reach it
/// again: a nested `with_local`, or an access through a global pointer to
/// this node, panics.
pub fn with_local<F: Fabric, R>(ctx: &F, region: u32, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    CcxxState::get(ctx).memory.with(ctx, region, f)
}

/// Bulk read: `lA = gpObj->get(gpA)` — a threaded RMI whose reply carries
/// the marshalled array.
pub fn bulk_get<F: Fabric>(ctx: &F, p: CxPtr, len: usize) -> Vec<f64> {
    get_f64s(ctx, p, len, M_GET, false)
}

/// Bulk write: `gpObj->put(lA, gpA)` — a threaded RMI carrying the
/// marshalled array.
pub fn bulk_put<F: Fabric>(ctx: &F, p: CxPtr, vals: &[f64]) {
    put_f64s(ctx, p, vals, M_PUT, false)
}

/// [`bulk_get`] for flat double arrays whose serialization the compiler has
/// inlined (one serialization call, per-byte copy only) — the LU block
/// transfers.
pub fn bulk_get_flat<F: Fabric>(ctx: &F, p: CxPtr, len: usize) -> Vec<f64> {
    get_f64s(ctx, p, len, M_GET_FLAT, true)
}

/// [`bulk_put`] for flat double arrays (inlined serialization).
pub fn bulk_put_flat<F: Fabric>(ctx: &F, p: CxPtr, vals: &[f64]) {
    put_f64s(ctx, p, vals, M_PUT_FLAT, true)
}

fn get_f64s<F: Fabric>(ctx: &F, p: CxPtr, len: usize, method: &str, flat: bool) -> Vec<f64> {
    let ret = rmi(
        ctx,
        p.node,
        method,
        &[p.region as u64, p.offset as u64, len as u64],
        None,
        CallMode::Threaded,
    );
    let data = ret
        .data
        .unwrap_or_else(|| panic!("{method} returned no data"));
    let raw = UnmarshalBuf::new(&data).next_f64s(ctx, flat);
    let mut vals = vec![0.0; raw.len() / 8];
    am::decode_f64s(raw, &mut vals);
    vals
}

fn put_f64s<F: Fabric>(ctx: &F, p: CxPtr, vals: &[f64], method: &str, flat: bool) {
    let mut buf = MarshalBuf::new();
    buf.push_f64s(ctx, vals, flat);
    rmi(
        ctx,
        p.node,
        method,
        &[p.region as u64, p.offset as u64],
        Some(buf),
        CallMode::Threaded,
    );
}

/// Atomically add three deltas to three consecutive doubles at `p` (Water's
/// force write-back).
pub fn atomic_add3<F: Fabric>(ctx: &F, p: CxPtr, deltas: [f64; 3]) {
    rmi(
        ctx,
        p.node,
        M_ADD3_F64,
        &[
            am::pack_addr(p.region, p.offset),
            deltas[0].to_bits(),
            deltas[1].to_bits(),
            deltas[2].to_bits(),
        ],
        None,
        CallMode::Atomic,
    );
}

/// Atomically add `delta` to the double at `p` (an atomic method of the
/// owning processor object).
pub fn atomic_add<F: Fabric>(ctx: &F, p: CxPtr, delta: f64) {
    rmi(
        ctx,
        p.node,
        M_ADD_F64,
        &[p.region as u64, p.offset as u64, delta.to_bits()],
        None,
        CallMode::Atomic,
    );
}

fn register_builtins<F: Fabric>(ctx: &F) {
    crate::rmi::register_method(ctx, M_NULL, |_ctx, _args| RmiRet::null());

    // The bulk methods, element-wise and flat: the array is marshalled
    // straight from the region and unmarshalled straight into it.
    for (get, put, flat) in [(M_GET, M_PUT, false), (M_GET_FLAT, M_PUT_FLAT, true)] {
        crate::rmi::register_method(ctx, get, move |ctx, args| {
            let off = args.words[1] as usize;
            let len = args.words[2] as usize;
            let mut buf = MarshalBuf::new();
            with_local(ctx, args.words[0] as u32, |r| {
                assert!(off + len <= r.len(), "{get} out of bounds");
                buf.push_f64s(ctx, &r[off..off + len], flat);
            });
            RmiRet::of_data(buf.finish())
        });

        crate::rmi::register_method(ctx, put, move |ctx, args| {
            let off = args.words[1] as usize;
            let data = args.data.unwrap_or_else(|| panic!("{put} without data"));
            let raw = UnmarshalBuf::new(&data).next_f64s(ctx, flat);
            let len = raw.len() / 8;
            with_local(ctx, args.words[0] as u32, |w| {
                assert!(off + len <= w.len(), "{put} out of bounds");
                am::decode_f64s(raw, &mut w[off..off + len]);
            });
            RmiRet::null()
        });
    }

    // The accumulate stubs stage rather than apply; the commit happens at
    // barrier exit in canonical order (see `RegionTable`). The staged `__addf`
    // can no longer return the post-add value — it is not known until the
    // commit — so both reply void, like `__add3f` always did.
    crate::rmi::register_method(ctx, M_ADD_F64, |ctx, args| {
        let (region, offset) = (args.words[0] as u32, args.words[1] as usize);
        let memory = &CcxxState::get(ctx).memory;
        memory.stage_add(ctx, args.src, region, offset, &args.words[2..3]);
        RmiRet::null()
    });

    crate::rmi::register_method(ctx, M_ADD3_F64, |ctx, args| {
        let (region, offset) = am::unpack_addr(args.words[0]);
        let memory = &CcxxState::get(ctx).memory;
        memory.stage_add(ctx, args.src, region, offset, &args.words[1..4]);
        RmiRet::null()
    });
}

/// Convenience: charge application cpu time (FP kernel work).
pub fn charge_cpu<F: Fabric>(ctx: &F, ns: mpmd_sim::Time) {
    ctx.charge(Bucket::Cpu, ns);
}
