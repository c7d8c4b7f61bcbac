//! Remote method invocation: the heart of the MPMD runtime.
//!
//! An RMI "specifies the data that is to be transferred and the remote
//! operation that is to be performed with the data... the data is then
//! transferred from one address space to another and the remote operation
//! executes on a new thread of control."
//!
//! Call path (warm, with stub caching):
//!
//! 1. initiator: look up the (node, method-hash) entry in the local stub
//!    cache — on a hit the resolved *stub address* travels in the message;
//!    on a miss the full *name* travels and resolution happens remotely,
//!    with the resolved address piggy-backed on the reply to update the
//!    cache ("a message being sent back to update the local entry").
//! 2. initiator: take a [`CxCall`] record from this node's free list
//!    (allocating only when the list is empty), re-arm its completion cell,
//!    fill in the request and send the record itself as the message token.
//!    Marshalled arguments (if any) go as an AM bulk transfer;
//!    argument-free invocations use a short 4-word AM.
//! 3. receiver: a non-threaded RMI runs the stub directly in the polling
//!    context ("the remote stub can be invoked directly as the active
//!    message handler"); a threaded RMI goes "to a generic active message
//!    handler who creates a new thread and then calls the desired method";
//!    atomic RMIs additionally hold the processor-object lock. Either way
//!    the stub's return value is written *into the record it came in* and
//!    the same box travels back as the reply's token: the receiver neither
//!    allocates nor frees.
//! 4. the reply handler parks the returned record in its completion cell
//!    and, for every mode but `Simple`, writes the cell's sync variable;
//!    `Simple` initiators spin-poll for the record, all other modes block on
//!    the sync variable and are woken by the handler. The initiator takes
//!    the return value out and puts the record back on the free list.
//!
//! Who frees what: a record lives and dies on the node that issued the call.
//! **Only the task that issued a call returns its record to the free list**,
//! after it has taken the return value out; the reply handler hands the
//! record to that task and never recycles it. (Recycling in the handler is
//! wrong: a blocked caller that has been woken but not yet scheduled would
//! find its cell re-armed by a sibling's next call.) A record whose caller
//! has unwound is dropped with its cell; a record in flight when the run
//! fails is dropped with the message that carries it. Global-pointer
//! accesses (`gp.rs`) ride the same records under the same rule, through
//! `CxCall::take`, `await_record`, `recycle` and `park`.

use crate::state::{name_hash, CacheEntry, CcxxState, StubFn};
use bytes::Bytes;
use mpmd_am::{self as am, HandlerId};
use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, NodeCell};
use mpmd_threads::SyncVar;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) const H_REQ: HandlerId = 64;
pub(crate) const H_REPLY: HandlerId = 65;

/// How an RMI is issued and executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CallMode {
    /// Spin-wait at the initiator, run inline at the receiver (the paper's
    /// "0-Word Simple": "no thread switches at the sender nor receiver").
    Simple,
    /// Block the initiating thread on a sync variable; run inline at the
    /// receiver (the "0-Word"/"1-Word"/"2-Word" rows: "a thread switch at
    /// the sender only").
    Blocking,
    /// Block at the initiator; execute the method on a new thread at the
    /// receiver (general CC++ RMI semantics — methods may block).
    Threaded,
    /// Threaded, with the method body holding the processor-object lock.
    Atomic,
    /// Optimistic Active Messages (Wallach et al., PPoPP '95, discussed in
    /// the paper's §7): "OAM optimistically executes the handler code on
    /// the stack — the handler is aborted and re-started on a separate
    /// thread if it blocks." Here the registered blocking hint decides:
    /// non-blocking methods run inline at a small check cost; blocking ones
    /// pay an abort charge and go to a thread.
    Optimistic,
}

impl CallMode {
    fn initiator_blocks(self) -> bool {
        !matches!(self, CallMode::Simple)
    }
}

/// Up to four untyped word arguments, stored inline — building a request
/// never heap-allocates for its words. Derefs to the populated prefix as a
/// `[u64]` slice, so indexing and iteration read like the old `Vec<u64>`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Words {
    buf: [u64; 4],
    len: u8,
}

impl Words {
    /// Copy in up to four words. Panics beyond four (the AM short-payload
    /// limit, per the paper's 4-word request/reply format).
    pub fn from_slice(s: &[u64]) -> Self {
        assert!(s.len() <= 4, "word arguments are limited to 4");
        let mut buf = [0u64; 4];
        buf[..s.len()].copy_from_slice(s);
        Words {
            buf,
            len: s.len() as u8,
        }
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.buf[..self.len as usize]
    }
}

/// Arguments as seen by a method stub.
pub struct RmiArgs {
    /// Calling node.
    pub src: usize,
    /// Untyped word arguments (the 4-word AM payload), inline.
    pub words: Words,
    /// Marshalled argument bytes (unmarshal with
    /// [`crate::marshal::UnmarshalBuf`]).
    pub data: Option<Bytes>,
    /// Target processor-object id for object methods (see [`crate::pobj`]).
    pub obj: Option<u64>,
}

/// A method's reply.
#[derive(Debug, Clone, Default)]
pub struct RmiRet {
    pub words: [u64; 4],
    pub data: Option<Bytes>,
}

impl RmiRet {
    /// An empty (void) return.
    pub fn null() -> Self {
        Self::default()
    }

    /// Return up to four words.
    pub fn of_words(words: [u64; 4]) -> Self {
        RmiRet { words, data: None }
    }

    /// Return a marshalled bulk payload.
    pub fn of_data(data: Bytes) -> Self {
        RmiRet {
            words: [0; 4],
            data: Some(data),
        }
    }
}

/// What the request message targets: a resolved stub address (warm) or a
/// (program, method name) pair to be resolved remotely (cold).
enum Target {
    Addr(u64),
    Name(u32, String),
}

/// One RMI, out and back: the request fields are written by the caller, the
/// reply fields by the callee, and the box that carries them is the token of
/// both messages (the simulation's wire image; byte-level sizes are accounted
/// through the AM layer's bulk path). Owned by the calling node for its whole
/// life — see the module docs for the ownership rule.
pub(crate) struct CxCall {
    src: usize,
    mode: CallMode,
    target: Target,
    words: Words,
    data: Option<Bytes>,
    /// Target processor-object id (object methods; see [`crate::pobj`]).
    obj: Option<u64>,
    pub(crate) ret: RmiRet,
    /// Piggy-backed stub resolution for the initiator's cache.
    cache_update: Option<(u32, u64, u64)>, // (program, name hash, addr)
    /// Where the reply handler leaves this record for the caller. `None`
    /// only between that hand-over and the caller putting its own clone
    /// back, so a record parked for a caller that has unwound does not keep
    /// its cell (and through it, itself) alive.
    cell: Option<Arc<Completion>>,
}

/// A call record's completion cell, kept across the record's reuses.
#[derive(Default)]
pub(crate) struct Completion {
    /// The record, back from the callee with `ret` filled in.
    returned: NodeCell<Option<Box<CxCall>>>,
    /// Written after `returned` is filled; what blocking modes wait on.
    sv: SyncVar<()>,
}

impl CxCall {
    fn new() -> Self {
        CxCall {
            src: 0,
            mode: CallMode::Simple,
            target: Target::Addr(0),
            words: Words::default(),
            data: None,
            obj: None,
            ret: RmiRet::null(),
            cache_update: None,
            cell: None,
        }
    }

    /// Take a record from this node's free list (allocating only when the
    /// list is empty) and re-arm its completion cell. Returns the record
    /// and the cell its caller waits on.
    pub(crate) fn take<F: Fabric>(ctx: &F, st: &CcxxState<F>) -> (Box<CxCall>, Arc<Completion>) {
        let popped = st.call_records.with(ctx, Vec::pop);
        let mut call = popped.unwrap_or_else(|| Box::new(CxCall::new()));
        // A pooled record's clone is the only one left (the handler that
        // returned it ran on this node's thread and has dropped its own); a
        // new record has no cell yet.
        match call.cell.as_mut().and_then(Arc::get_mut) {
            Some(cell) => cell.sv.rearm(),
            None => call.cell = Some(Arc::default()),
        }
        let cell = Arc::clone(call.cell.as_ref().expect("armed above"));
        (call, cell)
    }

    /// The record a request or reply message carries.
    pub(crate) fn of(m: &mut am::AmMsg) -> Box<CxCall> {
        m.token
            .take()
            .expect("message without its call record")
            .downcast::<CxCall>()
            .expect("foreign token where a call record belongs")
    }
}

/// Wait until the reply handler parks the record in `cell`: block on its
/// sync variable, or spin-poll when the caller does not block.
pub(crate) fn await_record<F: Fabric>(ctx: &F, cell: &Completion, blocks: bool) -> Box<CxCall> {
    if blocks {
        // Blocking read: flush any coalesced sends first, or the request
        // could sit buffered while this thread sleeps on the reply.
        am::flush(ctx);
        cell.sv.read(ctx);
        cell.returned.with(ctx, Option::take)
    } else {
        let mut back = None;
        spin_wait(ctx, || {
            back = cell.returned.with(ctx, Option::take);
            back.is_some()
        });
        back
    }
    .expect("reply not complete")
}

/// Take the return value out of a record that came back and put the record,
/// with its cell, on this node's free list. Only the task that issued the
/// call does this (module docs).
pub(crate) fn recycle<F: Fabric>(
    ctx: &F,
    st: &CcxxState<F>,
    mut call: Box<CxCall>,
    cell: Arc<Completion>,
) -> RmiRet {
    call.cell = Some(cell);
    let ret = std::mem::take(&mut call.ret);
    st.call_records.with(ctx, |free| free.push(call));
    ret
}

/// Reply-handler side: hand a returned record to the task that issued the
/// call, waking that task if it blocks. Not recycled here: that task may not
/// have run yet (module docs).
pub(crate) fn park<F: Fabric>(ctx: &F, mut call: Box<CxCall>, wake: bool) {
    let cell = call.cell.take().expect("call record without its cell");
    cell.returned.with(ctx, |r| *r = Some(call));
    if wake {
        cell.sv.write(ctx, ());
    }
}

/// Call records on this node's free list.
#[doc(hidden)]
pub fn debug_call_records<F: Fabric>(ctx: &F) -> usize {
    CcxxState::get(ctx)
        .call_records
        .with(ctx, |free| free.len())
}

/// The default program id ("a CC++ application can be composed of multiple,
/// separately compiled program images"; single-image applications live in
/// program 0).
pub const DEFAULT_PROGRAM: u32 = 0;

/// Register a method in program 0 on this node, returning its local
/// entry-point address. General RMI semantics: the method may block.
pub fn register_method<F: Fabric>(
    ctx: &F,
    name: &str,
    f: impl Fn(&F, RmiArgs) -> RmiRet + Send + Sync + 'static,
) -> u64 {
    register_method_full(ctx, DEFAULT_PROGRAM, name, true, f)
}

/// Register a method in an explicit program image, with a blocking hint.
/// `may_block = false` lets [`CallMode::Optimistic`] invocations run the
/// method inline at the receiver (the OAM fast path).
pub fn register_method_full<F: Fabric>(
    ctx: &F,
    program: u32,
    name: &str,
    may_block: bool,
    f: impl Fn(&F, RmiArgs) -> RmiRet + Send + Sync + 'static,
) -> u64 {
    let st = CcxxState::get(ctx);
    let stub = crate::state::StubRec {
        f: Arc::new(f),
        may_block,
    };
    let addr = st.stubs.with(ctx, |stubs| {
        stubs.push(stub);
        stubs.len() as u64 - 1
    });
    let prev = st.by_name.with(ctx, |by_name| {
        by_name.insert((program, name.to_string()), addr)
    });
    assert!(
        prev.is_none(),
        "method '{name}' registered twice in program {program}"
    );
    addr
}

/// Spin-poll until `pred`, registering as a spinner so the polling thread
/// defers (no thread operations are charged — this is the Simple path).
pub(crate) fn spin_wait<F: Fabric>(ctx: &F, pred: impl FnMut() -> bool) {
    let spinners = &CcxxState::get(ctx).spinners;
    spinners.fetch_add(1, Ordering::AcqRel);
    am::wait_until(ctx, pred);
    spinners.fetch_sub(1, Ordering::AcqRel);
}

/// Invoke `method` on node `dst` and wait for its reply.
///
/// `words` are untyped word arguments (up to 4); marshalled arguments go in
/// `payload` (built with [`crate::marshal::MarshalBuf`]). Bulk returns are
/// charged the extra receive-side copy here unless the runtime is configured
/// to pass return-buffer addresses.
pub fn rmi<F: Fabric>(
    ctx: &F,
    dst: usize,
    method: &str,
    words: &[u64],
    payload: Option<crate::marshal::MarshalBuf>,
    mode: CallMode,
) -> RmiRet {
    rmi_program(ctx, dst, DEFAULT_PROGRAM, method, words, payload, mode)
}

/// [`rmi`] against a processor-object method: the invocation record carries
/// the object id; the owner resolves `(object, method)` to the typed stub.
/// Used by [`crate::pobj::rmi_obj`].
pub(crate) fn rmi_with_object<F: Fabric>(
    ctx: &F,
    dst: usize,
    method: &str,
    obj: u64,
    words: &[u64],
    payload: Option<crate::marshal::MarshalBuf>,
    mode: CallMode,
) -> RmiRet {
    rmi_inner(
        ctx,
        dst,
        DEFAULT_PROGRAM,
        method,
        Some(obj),
        words,
        payload,
        mode,
    )
}

/// [`rmi`] against a method of an explicit program image on the target node.
pub fn rmi_program<F: Fabric>(
    ctx: &F,
    dst: usize,
    program: u32,
    method: &str,
    words: &[u64],
    payload: Option<crate::marshal::MarshalBuf>,
    mode: CallMode,
) -> RmiRet {
    rmi_inner(ctx, dst, program, method, None, words, payload, mode)
}

#[allow(clippy::too_many_arguments)]
fn rmi_inner<F: Fabric>(
    ctx: &F,
    dst: usize,
    program: u32,
    method: &str,
    obj: Option<u64>,
    words: &[u64],
    payload: Option<crate::marshal::MarshalBuf>,
    mode: CallMode,
) -> RmiRet {
    let words = Words::from_slice(words);
    let st = CcxxState::get(ctx);
    let cfg = st.cfg();
    let c = &cfg.costs;
    // Round-trip latency distribution, issue to reply-in-hand. Covers every
    // call mode; the mode mix is whatever the application issued.
    let rmi_t0 = ctx.metric_now();
    // "rmi.marshal" covers the initiator-side request construction: issue
    // overhead, stub-cache lookup, blocking plumbing and wire-image assembly.
    // (Argument serialization proper is charged in `MarshalBuf::push`, which
    // opens its own "rmi.marshal" frames at the call sites.)
    let sp_marshal = ctx.span_start("rmi.marshal");
    ctx.charge(Bucket::Runtime, c.send_issue);

    // Stub-cache lookup (charged lock + 3 µs lookup). A miss — or caching
    // disabled — ships the method name.
    let hash = name_hash(method) ^ obj.unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let target = if cfg.stub_caching {
        ctx.charge(Bucket::Runtime, c.stub_lookup);
        let cache = st.stub_cache.lock(ctx);
        match cache.get(&(dst, program, hash)) {
            Some(e) => Target::Addr(e.addr),
            None => Target::Name(program, method.to_string()),
        }
    } else {
        Target::Name(program, method.to_string())
    };

    if mode.initiator_blocks() {
        ctx.charge(Bucket::Runtime, c.blocking_plumbing);
    }

    // The wire image: marshalled payload bytes, plus the method name when
    // shipping a name instead of an address.
    let payload_bytes = payload.map(|p| p.finish());
    let name_bytes = match &target {
        Target::Name(_, n) => n.len() + 4, // name + program id
        Target::Addr(_) => 0,
    };
    let (mut call, cell) = CxCall::take(ctx, st);
    call.src = ctx.node();
    call.mode = mode;
    call.target = target;
    call.words = words;
    call.data = payload_bytes.clone();
    call.obj = obj;
    ctx.span_end(sp_marshal);

    {
        let _sp_send = ctx.span("rmi.send");
        drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
        let wire_extra = payload_bytes.as_ref().map_or(0, |b| b.len()) + name_bytes;
        if wire_extra > 0 {
            // Argument data (and cold-path names) travel via the AM bulk
            // primitives — the "+15 µs" of the 1-Word/2-Word rows.
            let wire = payload_bytes.unwrap_or_else(|| Bytes::from(vec![0u8; name_bytes]));
            let wire = if wire.len() < wire_extra {
                // name + payload: extend the wire image to the full size
                let mut v = vec![0u8; wire_extra];
                v[..wire.len()].copy_from_slice(&wire);
                Bytes::from(v)
            } else {
                wire
            };
            am::endpoint(ctx)
                .to(dst)
                .handler(H_REQ)
                .bulk(wire)
                .token(call as am::Token)
                .send();
        } else {
            am::endpoint(ctx)
                .to(dst)
                .handler(H_REQ)
                .token(call as am::Token)
                .send();
        }
    }

    let call = await_record(ctx, &cell, mode.initiator_blocks());
    let sp_unmarshal = ctx.span_start("rmi.unmarshal");
    let ret = recycle(ctx, st, call, cell);
    if let Some(d) = &ret.data {
        // "Bulk reads cost more than bulk writes in CC++ because the return
        // data has to be copied twice" — unless the initiator passed its
        // R-buffer address.
        if !cfg.pass_return_buffer {
            ctx.charge(Bucket::Runtime, c.extra_copy_charge(d.len()));
        }
    }
    ctx.span_end(sp_unmarshal);
    if let Some(t0) = rmi_t0 {
        ctx.metric_observe_since("ccxx.rmi_rtt_ns", t0);
    }
    ret
}

/// Execute a stub and send the reply in the record the request came in
/// (shared by the inline and threaded receive paths). Runs on the receiving
/// node.
fn run_and_reply<F: Fabric>(ctx: &F, st: &CcxxState<F>, stub: StubFn<F>, mut call: Box<CxCall>) {
    let cfg = st.cfg();
    let c = &cfg.costs;
    let sp_exec = ctx.span_start("rmi.execute");
    let args = RmiArgs {
        src: call.src,
        words: call.words,
        data: call.data.take(),
        obj: call.obj,
    };
    let ret = if matches!(call.mode, CallMode::Atomic) {
        ctx.charge(Bucket::Runtime, c.atomic_lookup);
        let _obj = st.method_lock.lock(ctx);
        stub(ctx, args)
    } else {
        stub(ctx, args)
    };
    ctx.span_end(sp_exec);
    // Send the reply.
    let _sp_reply = ctx.span("rmi.reply");
    drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
    ctx.charge(Bucket::Runtime, c.reply_issue);
    let dst = call.src;
    let bulk = ret.data.clone();
    call.ret = ret;
    match bulk {
        Some(d) => am::endpoint(ctx)
            .to(dst)
            .handler(H_REPLY)
            .bulk(d)
            .token(call as am::Token)
            .send(),
        None => am::endpoint(ctx)
            .to(dst)
            .handler(H_REPLY)
            .token(call as am::Token)
            .send(),
    }
}

pub(crate) fn register_rmi_handlers<F: Fabric>(ctx: &F) {
    am::register(ctx, H_REQ, |ctx, mut m| {
        let st = CcxxState::get(ctx);
        let cfg = st.cfg();
        let c = &cfg.costs;
        // "rmi.dispatch" covers receive-side request processing up to the
        // run decision: stub resolution, R-buffer management, mode checks.
        // The method body itself is "rmi.execute" (in `run_and_reply`).
        let sp_dispatch = ctx.span_start("rmi.dispatch");
        if let Some(ic) = cfg.interrupt_cost {
            // Interrupt-driven reception: the software interrupt and its
            // kernel propagation cost, per message.
            ctx.charge(Bucket::Net, ic);
        }
        let mut call = CxCall::of(&mut m);
        drop(st.dispatch_lock.lock(ctx)); // charged lock/unlock pair; released before dispatch (handlers may send)
        ctx.charge(Bucket::Runtime, c.recv_dispatch);

        // Resolve the stub.
        let (addr, cache_update) = match &call.target {
            Target::Addr(a) => (*a, None),
            Target::Name(prog, n) => {
                ctx.charge(Bucket::Runtime, c.name_resolve);
                let wire_name = match call.obj {
                    Some(obj) => crate::pobj::object_method_wire_name(ctx, obj, n),
                    None => n.clone(),
                };
                let key = (*prog, wire_name);
                let a = st.by_name.with(ctx, |by_name| by_name.get(&key).copied());
                let a = a.unwrap_or_else(|| {
                    panic!(
                        "no method '{}' registered in program {prog} on node {}",
                        key.1,
                        ctx.node()
                    )
                });
                let cache_hash =
                    name_hash(n) ^ call.obj.unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (a, Some((*prog, cache_hash, a)))
            }
        };
        call.cache_update = cache_update;
        let (stub, may_block) = st.stubs.with(ctx, |stubs| {
            let rec = &stubs[addr as usize];
            (Arc::clone(&rec.f), rec.may_block)
        });

        // Persistent R-buffer management for argument data.
        if let Some(d) = &call.data {
            let key = (call.src, addr);
            let warm = cfg.persistent_buffers && st.rbufs.with(ctx, |r| r.contains(&key));
            if !warm {
                // Cold invocation: allocate an R-buffer and pay the extra
                // copy from the per-node static buffer area.
                ctx.charge(Bucket::Runtime, c.rbuf_alloc + c.extra_copy_charge(d.len()));
                if cfg.persistent_buffers {
                    st.rbufs.with(ctx, |r| r.insert(key));
                }
            }
        }

        // Decide where the method runs.
        let spawns = match call.mode {
            CallMode::Threaded | CallMode::Atomic => true,
            CallMode::Simple | CallMode::Blocking => false,
            CallMode::Optimistic => {
                // OAM: run on the stack when the method cannot block; abort
                // to a fresh thread when it might.
                ctx.charge(Bucket::Runtime, c.oam_check);
                if may_block {
                    ctx.charge(Bucket::Runtime, c.oam_abort);
                    true
                } else {
                    false
                }
            }
        };
        if spawns {
            ctx.charge(Bucket::Runtime, c.threaded_dispatch);
            ctx.span_end(sp_dispatch);
            mpmd_threads::spawn(ctx, "rmi-method", move |cctx| {
                run_and_reply(&cctx, CcxxState::get(&cctx), stub, call);
                // The method thread ends here; push out any coalesced reply
                // rather than leaving it for the next poller.
                am::flush(&cctx);
            });
        } else {
            ctx.span_end(sp_dispatch);
            run_and_reply(ctx, st, stub, call);
        }
    });

    am::register(ctx, H_REPLY, |ctx, mut m| {
        let st = CcxxState::get(ctx);
        let cfg = st.cfg();
        let c = &cfg.costs;
        if let Some(ic) = cfg.interrupt_cost {
            ctx.charge(Bucket::Net, ic);
        }
        let mut call = CxCall::of(&mut m);
        drop(st.dispatch_lock.lock(ctx)); // charged lock/unlock pair; released before dispatch (handlers may send)
        ctx.charge(Bucket::Runtime, c.reply_dispatch);
        if let Some((prog, hash, addr)) = call.cache_update.take() {
            if cfg.stub_caching {
                ctx.charge(Bucket::Runtime, c.cache_update);
                let mut cache = st.stub_cache.lock(ctx);
                cache.insert((m.src, prog, hash), CacheEntry { addr });
            }
        }
        let blocks = call.mode.initiator_blocks();
        park(ctx, call, blocks);
    });
}
