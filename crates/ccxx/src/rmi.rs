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
//!    (allocating only when the list is empty) and re-arm its completion
//!    cell. The request frame carries the whole call: its first argument
//!    word packs the stub address, the [`CallMode`], the word count and a
//!    processor-object id ([`Head`]), the other three carry the first three
//!    words, and marshalled arguments ride the AM bulk payload (a cold call
//!    appends the method name and program id to it). The record travels only
//!    as the message token. Argument-free invocations use a short 4-word AM.
//! 3. receiver: decode the request from the frame. A non-threaded RMI runs
//!    the stub directly in the polling context ("the remote stub can be
//!    invoked directly as the active message handler"); a threaded RMI goes
//!    "to a generic active message handler who creates a new thread and then
//!    calls the desired method", which gets the decoded request and the
//!    token; atomic RMIs additionally hold the processor-object lock. Either
//!    way the reply frame carries the whole return — its words as the
//!    arguments, its bytes as the bulk payload — with the untouched token:
//!    the receiver neither allocates, frees nor reads the record.
//! 4. the reply handler, on the initiator's node, stores the return into the
//!    record, parks the record in its completion cell and, for every mode
//!    but `Simple`, writes the cell's sync variable; `Simple` initiators
//!    spin-poll for the record, all other modes block on the sync variable
//!    and are woken by the handler. The initiator takes the return value out
//!    and puts the record back on the free list.
//!
//! Who touches what: a record lives and dies on the node that issued the
//! call, and only that node writes it, with two exceptions. The fourth word
//! of a four-word call (and an object id too wide to pack) is the one thing
//! a callee *reads* from it; a cold call's resolved stub address is the one
//! thing a callee *writes* into it. The caller's half (whether it blocks,
//! the return, the completion cell) sits in a [`NodeCell`], so a callee on
//! another node that reaches into it fails the run with `ACROSS_NODES`.
//!
//! Who frees what: **only the task that issued a call returns its record to
//! the free list**, after it has taken the return value out; the reply
//! handler hands the record to that task and never recycles it. (Recycling
//! in the handler is wrong: a blocked caller that has been woken but not yet
//! scheduled would find its cell re-armed by a sibling's next call.) A
//! record whose caller has unwound is dropped with its cell; a record in
//! flight when the run fails is dropped with the message that carries it.
//! Global-pointer accesses (`gp.rs`) ride the same records under the same
//! rules, through `CxCall::take`, `await_record`, `land` and `recycle`.

use crate::state::{name_hash, CcxxState, StubFn};
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
    /// Every mode, in the order of its code in a request's [`Head`].
    const ALL: [CallMode; 5] = [
        CallMode::Simple,
        CallMode::Blocking,
        CallMode::Threaded,
        CallMode::Atomic,
        CallMode::Optimistic,
    ];

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

/// Where a request's processor-object id travels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ObjAt {
    /// A plain method: no object.
    None,
    /// Packed into the request's first word.
    Packed(u64),
    /// Too wide to pack: in the record, for the callee to read.
    Record,
}

impl ObjAt {
    fn of(obj: Option<u64>) -> Self {
        match obj {
            None => ObjAt::None,
            Some(id) if id >> Head::OBJ_SHIFT == 0 => ObjAt::Packed(id),
            Some(_) => ObjAt::Record,
        }
    }
}

/// A request's first argument word: how to run the call and where the rest
/// of it is.
///
/// | bits   | field                                                        |
/// |--------|--------------------------------------------------------------|
/// | 0..3   | the [`CallMode`]                                             |
/// | 3..6   | the word count, 0 to 4                                       |
/// | 6      | cold: the bulk image ends in the method name and program id  |
/// | 7      | the call has marshalled arguments (maybe none of them bytes) |
/// | 8..10  | the processor object: none, packed, or in the record         |
/// | 10..32 | the stub address (warm) or the method name's length (cold)  |
/// | 32..64 | a packed processor-object id                                 |
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Head {
    mode: CallMode,
    words: usize,
    cold: bool,
    data: bool,
    obj: ObjAt,
    /// Warm: the stub address; cold: the byte length of the method name.
    target: u64,
}

impl Head {
    const TARGET_SHIFT: u32 = 10;
    const OBJ_SHIFT: u32 = 32;

    fn pack(self) -> u64 {
        let room = Head::OBJ_SHIFT - Head::TARGET_SHIFT;
        assert!(
            self.target >> room == 0,
            "stub address or method name length {} does not fit {room} bits",
            self.target
        );
        let (tag, id) = match self.obj {
            ObjAt::None => (0, 0),
            ObjAt::Packed(id) => (1, id),
            ObjAt::Record => (2, 0),
        };
        self.mode as u64
            | (self.words as u64) << 3
            | u64::from(self.cold) << 6
            | u64::from(self.data) << 7
            | tag << 8
            | self.target << Head::TARGET_SHIFT
            | id << Head::OBJ_SHIFT
    }

    fn unpack(w: u64) -> Head {
        let bits = |at: u32, n: u32| (w >> at) & ((1 << n) - 1);
        Head {
            mode: CallMode::ALL[bits(0, 3) as usize],
            words: bits(3, 3) as usize,
            cold: bits(6, 1) == 1,
            data: bits(7, 1) == 1,
            obj: match bits(8, 2) {
                0 => ObjAt::None,
                1 => ObjAt::Packed(w >> Head::OBJ_SHIFT),
                _ => ObjAt::Record,
            },
            target: bits(Head::TARGET_SHIFT, Head::OBJ_SHIFT - Head::TARGET_SHIFT),
        }
    }
}

/// One RMI or global-pointer access, out and back: the box is the token of
/// both messages, which carry the call and its return in their frames.
/// Owned by the calling node for its whole life — see the module docs for
/// what a callee may touch.
pub(crate) struct CxCall {
    /// The caller's half: only the calling node's tasks touch it.
    home: NodeCell<Home>,
    /// The fourth word of a four-word call: read by the callee.
    fourth_word: u64,
    /// A processor-object id too wide for the request's first word: read by
    /// the callee.
    wide_obj: u64,
    /// Piggy-backed stub resolution for the initiator's cache: written by a
    /// cold call's callee.
    cache_update: Option<(u32, u64, u64)>, // (program, name hash, addr)
}

/// The part of a call record only its own node touches.
#[derive(Default)]
struct Home {
    /// Whether the reply handler wakes the caller (else it spins).
    blocks: bool,
    /// The return, stored by the reply handler.
    ret: RmiRet,
    /// Where the reply handler leaves this record for the caller. `None`
    /// only between that hand-over and the caller putting its own clone
    /// back, so a record parked for a caller that has unwound does not keep
    /// its cell (and through it, itself) alive.
    cell: Option<Arc<Completion>>,
}

/// A call record's completion cell, kept across the record's reuses.
#[derive(Default)]
pub(crate) struct Completion {
    /// The record, back from the callee with its return stored.
    returned: NodeCell<Option<Box<CxCall>>>,
    /// Written after `returned` is filled; what blocking modes wait on.
    sv: SyncVar<()>,
}

impl CxCall {
    fn new() -> Self {
        CxCall {
            home: NodeCell::default(),
            fourth_word: 0,
            wide_obj: 0,
            cache_update: None,
        }
    }

    /// Take a record from this node's free list (allocating only when the
    /// list is empty) and re-arm its completion cell for a caller that
    /// `blocks` or spins. Returns the record and the cell its caller waits
    /// on.
    pub(crate) fn take<F: Fabric>(
        ctx: &F,
        st: &CcxxState<F>,
        blocks: bool,
    ) -> (Box<CxCall>, Arc<Completion>) {
        let popped = st.call_records.with(ctx, Vec::pop);
        let call = popped.unwrap_or_else(|| Box::new(CxCall::new()));
        let cell = call.home.with(ctx, |home| {
            home.blocks = blocks;
            // A pooled record's clone is the only one left (the handler that
            // returned it ran on this node's thread and has dropped its
            // own); a new record has no cell yet.
            match home.cell.as_mut().and_then(Arc::get_mut) {
                Some(cell) => cell.sv.rearm(),
                None => home.cell = Some(Arc::default()),
            }
            Arc::clone(home.cell.as_ref().expect("armed above"))
        });
        (call, cell)
    }

    /// The record a reply message carries.
    pub(crate) fn of(m: &mut am::AmMsg) -> Box<CxCall> {
        m.token
            .take()
            .expect("message without its call record")
            .downcast::<CxCall>()
            .expect("foreign token where a call record belongs")
    }

    /// The record a request carries, for the few fields a callee reads or
    /// writes (module docs).
    fn far(token: &mut Option<am::Token>) -> &mut CxCall {
        token
            .as_mut()
            .and_then(|t| t.downcast_mut::<CxCall>())
            .expect("request without its call record")
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
    call: Box<CxCall>,
    cell: Arc<Completion>,
) -> RmiRet {
    let ret = call.home.with(ctx, |home| {
        home.cell = Some(cell);
        std::mem::take(&mut home.ret)
    });
    st.call_records.with(ctx, |free| free.push(call));
    ret
}

/// Reply-handler side, on the caller's node: store the return a reply
/// frame carried into its record and hand the record to the task that
/// issued the call, waking that task if it blocks. Not recycled here: that
/// task may not have run yet (module docs).
pub(crate) fn land<F: Fabric>(ctx: &F, call: Box<CxCall>, ret: RmiRet) {
    let (cell, wake) = call.home.with(ctx, |home| {
        home.ret = ret;
        let cell = home.cell.take().expect("call record without its cell");
        (cell, home.blocks)
    });
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

/// Send a call record of this node, armed as for a call, to `handler` at
/// `dst` as the token of a short message. With [`debug_touch_record`] it
/// shows what a callee that reached into a record would do.
#[doc(hidden)]
pub fn debug_send_record<F: Fabric>(ctx: &F, dst: usize, handler: HandlerId) {
    let (call, _cell) = CxCall::take(ctx, CcxxState::get(ctx), true);
    am::endpoint(ctx)
        .to(dst)
        .handler(handler)
        .token(call as am::Token)
        .send();
}

/// Read the caller's half of the call record `m` carries, as no callee may:
/// on any node but the record's own this fails the run with
/// `ACROSS_NODES`.
#[doc(hidden)]
pub fn debug_touch_record<F: Fabric>(ctx: &F, m: &mut am::AmMsg) -> bool {
    CxCall::of(m).home.with(ctx, |home| home.blocks)
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

/// [`rmi`] against a processor-object method: the request carries the
/// object id; the owner resolves `(object, method)` to the typed stub.
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

/// The stub-cache key hash of `method` on processor object `obj`.
fn cache_hash(method: &str, obj: Option<u64>) -> u64 {
    name_hash(method) ^ obj.unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A cold call's bulk image: the marshalled arguments, then the method
/// name and the program id the callee resolves it in.
fn cold_image(payload: Option<Bytes>, program: u32, method: &str) -> Bytes {
    let args = payload.as_deref().unwrap_or_default();
    let mut image = Vec::with_capacity(args.len() + method.len() + 4);
    image.extend_from_slice(args);
    image.extend_from_slice(method.as_bytes());
    image.extend_from_slice(&program.to_le_bytes());
    Bytes::from(image)
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
    assert!(words.len() <= 4, "word arguments are limited to 4");
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
    let cached = if cfg.stub_caching {
        ctx.charge(Bucket::Runtime, c.stub_lookup);
        let hash = cache_hash(method, obj);
        st.stub_cache.lock(ctx).get(dst, program, hash)
    } else {
        None
    };

    if mode.initiator_blocks() {
        ctx.charge(Bucket::Runtime, c.blocking_plumbing);
    }

    // The wire image: marshalled payload bytes, plus the method name and
    // program id when shipping a name instead of an address.
    let payload = payload.map(|p| p.finish());
    let head = Head {
        mode,
        words: words.len(),
        cold: cached.is_none(),
        data: payload.is_some(),
        obj: ObjAt::of(obj),
        target: cached.unwrap_or(method.len() as u64),
    };
    let image = match cached {
        Some(_) => payload.filter(|b| !b.is_empty()),
        None => Some(cold_image(payload, program, method)),
    };
    let (mut call, cell) = CxCall::take(ctx, st, mode.initiator_blocks());
    if let (ObjAt::Record, Some(id)) = (head.obj, obj) {
        call.wide_obj = id;
    }
    let word = |i: usize| words.get(i).copied().unwrap_or(0);
    call.fourth_word = word(3);
    ctx.span_end(sp_marshal);

    {
        let _sp_send = ctx.span("rmi.send");
        drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
        let args = [head.pack(), word(0), word(1), word(2)];
        let send = am::endpoint(ctx).to(dst).handler(H_REQ).args(args);
        // Argument data (and cold-path names) travel via the AM bulk
        // primitives — the "+15 µs" of the 1-Word/2-Word rows.
        match image {
            Some(image) => send.bulk(image),
            None => send,
        }
        .token(call as am::Token)
        .send();
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

/// A request as its frame carried it: what the stub runs on, with the token
/// its reply carries back.
struct Request {
    mode: CallMode,
    args: RmiArgs,
    token: Option<am::Token>,
}

/// Execute a stub and send its return back in the reply frame (shared by
/// the inline and threaded receive paths). Runs on the receiving node.
fn run_and_reply<F: Fabric>(ctx: &F, st: &CcxxState<F>, stub: StubFn<F>, req: Request) {
    let cfg = st.cfg();
    let c = &cfg.costs;
    let dst = req.args.src;
    let sp_exec = ctx.span_start("rmi.execute");
    let ret = if matches!(req.mode, CallMode::Atomic) {
        ctx.charge(Bucket::Runtime, c.atomic_lookup);
        let _obj = st.method_lock.lock(ctx);
        stub(ctx, req.args)
    } else {
        stub(ctx, req.args)
    };
    ctx.span_end(sp_exec);
    // Send the reply.
    let _sp_reply = ctx.span("rmi.reply");
    drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
    ctx.charge(Bucket::Runtime, c.reply_issue);
    let send = am::endpoint(ctx).to(dst).handler(H_REPLY).args(ret.words);
    match ret.data {
        Some(d) => send.bulk(d),
        None => send,
    }
    .token(req.token)
    .send();
}

/// The callee's half of a cold call: resolve the method named at the end
/// of `image` (for processor object `obj`), charging the resolution, and
/// tell the caller's cache through the record. Returns the stub address
/// and the marshalled arguments in front of the name.
fn resolve_cold<'a, F: Fabric>(
    ctx: &F,
    st: &CcxxState<F>,
    image: &'a Bytes,
    name_len: usize,
    obj: Option<u64>,
    token: &mut Option<am::Token>,
) -> (u64, &'a [u8]) {
    ctx.charge(Bucket::Runtime, st.cfg().costs.name_resolve);
    let (rest, program) = image.split_at(image.len() - 4);
    let program = u32::from_le_bytes(program.try_into().expect("4 bytes"));
    let (args, name) = rest.split_at(rest.len() - name_len);
    let name = std::str::from_utf8(name).expect("method names are UTF-8");
    let wire_name = match obj {
        Some(obj) => crate::pobj::object_method_wire_name(ctx, obj, name),
        None => name.to_string(),
    };
    let key = (program, wire_name);
    let addr = st.by_name.with(ctx, |by_name| by_name.get(&key).copied());
    let addr = addr.unwrap_or_else(|| {
        panic!(
            "no method '{}' registered in program {program} on node {}",
            key.1,
            ctx.node()
        )
    });
    CxCall::far(token).cache_update = Some((program, cache_hash(name, obj), addr));
    (addr, args)
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
        let head = Head::unpack(m.args[0]);
        drop(st.dispatch_lock.lock(ctx)); // charged lock/unlock pair; released before dispatch (handlers may send)
        ctx.charge(Bucket::Runtime, c.recv_dispatch);

        // The request, from the frame; the record only for what did not
        // fit there.
        let obj = match head.obj {
            ObjAt::None => None,
            ObjAt::Packed(id) => Some(id),
            ObjAt::Record => Some(CxCall::far(&mut m.token).wide_obj),
        };
        let mut words = [m.args[1], m.args[2], m.args[3], 0];
        if head.words == 4 {
            words[3] = CxCall::far(&mut m.token).fourth_word;
        }
        let (addr, data) = match m.data.take() {
            Some(image) if head.cold => {
                let name_len = head.target as usize;
                let (addr, args) = resolve_cold(ctx, st, &image, name_len, obj, &mut m.token);
                (addr, head.data.then(|| Bytes::copy_from_slice(args)))
            }
            image => (head.target, head.data.then(|| image.unwrap_or_default())),
        };
        let (stub, may_block) = st.stubs.with(ctx, |stubs| {
            let rec = &stubs[addr as usize];
            (Arc::clone(&rec.f), rec.may_block)
        });

        // Persistent R-buffer management for argument data.
        if let Some(d) = &data {
            let warm = cfg.persistent_buffers && st.rbufs.with(ctx, |r| r.has(m.src, addr));
            if !warm {
                // Cold invocation: allocate an R-buffer and pay the extra
                // copy from the per-node static buffer area.
                ctx.charge(Bucket::Runtime, c.rbuf_alloc + c.extra_copy_charge(d.len()));
                if cfg.persistent_buffers {
                    st.rbufs.with(ctx, |r| r.insert(m.src, addr));
                }
            }
        }

        // Decide where the method runs.
        let spawns = match head.mode {
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
        let req = Request {
            mode: head.mode,
            args: RmiArgs {
                src: m.src,
                words: Words::from_slice(&words[..head.words]),
                data,
                obj,
            },
            token: m.token,
        };
        if spawns {
            ctx.charge(Bucket::Runtime, c.threaded_dispatch);
            ctx.span_end(sp_dispatch);
            mpmd_threads::spawn(ctx, "rmi-method", move |cctx| {
                run_and_reply(&cctx, CcxxState::get(&cctx), stub, req);
                // The method thread ends here; push out any coalesced reply
                // rather than leaving it for the next poller.
                am::flush(&cctx);
            });
        } else {
            ctx.span_end(sp_dispatch);
            run_and_reply(ctx, st, stub, req);
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
                st.stub_cache.lock(ctx).insert(m.src, prog, hash, addr);
            }
        }
        let ret = RmiRet {
            words: m.args,
            data: m.data,
        };
        land(ctx, call, ret);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_fabric::LocalFabric;
    use mpmd_sim::Sim;

    #[test]
    fn a_head_unpacks_to_what_was_packed() {
        for mode in CallMode::ALL {
            for words in 0..=4 {
                for obj in [
                    ObjAt::None,
                    ObjAt::Packed(0),
                    ObjAt::Packed(u32::MAX as u64),
                    ObjAt::Record,
                ] {
                    for (cold, data, target) in [
                        (false, false, 0),
                        (true, true, 7),
                        (false, true, (1 << 22) - 1),
                    ] {
                        let head = Head {
                            mode,
                            words,
                            cold,
                            data,
                            obj,
                            target,
                        };
                        assert_eq!(Head::unpack(head.pack()), head);
                    }
                }
            }
        }
        assert_eq!(
            ObjAt::of(Some(u32::MAX as u64)),
            ObjAt::Packed(u32::MAX as u64)
        );
        assert_eq!(ObjAt::of(Some(1 << 32)), ObjAt::Record);
    }

    #[test]
    #[should_panic(expected = "does not fit 22 bits")]
    fn a_target_too_wide_for_the_head_panics() {
        let head = Head {
            mode: CallMode::Simple,
            words: 0,
            cold: true,
            data: false,
            obj: ObjAt::None,
            target: 1 << 22,
        };
        head.pack();
    }

    /// Object ids too wide for a request's first word ride the record: every
    /// mode, with a fourth word from the record too.
    fn wide_object_ids<F: Fabric>(ctx: &F) {
        crate::init(ctx, crate::CcxxConfig::tham());
        crate::register_obj_method::<u64, _, _>(ctx, "get", false, |_, v, a| {
            RmiRet::of_words([*v, a.words[3], 0, 0])
        });
        // Both nodes number their objects from here, so the id is the same.
        CcxxState::get(ctx)
            .next_obj
            .store(1 << 40, Ordering::Release);
        let p = crate::create_object(ctx, 7 + ctx.node() as u64);
        assert_eq!(ObjAt::of(Some(p.obj)), ObjAt::Record);
        crate::barrier(ctx);
        if ctx.node() == 0 {
            for mode in CallMode::ALL {
                for dst in [0, 1] {
                    let at = crate::CxObjPtr {
                        node: dst,
                        obj: p.obj,
                    };
                    let r = crate::rmi_obj(ctx, at, "get", &[1, 2, 3, 4], None, mode);
                    assert_eq!(r.words, [7 + dst as u64, 4, 0, 0], "{mode:?} to {dst}");
                }
            }
        }
        crate::finalize(ctx);
    }

    #[test]
    fn a_wide_object_id_rides_the_record_sim() {
        Sim::new(2).run(|ctx| wide_object_ids(&ctx));
    }

    #[test]
    fn a_wide_object_id_rides_the_record_local() {
        LocalFabric::run(2, |ctx| wide_object_ids(&ctx));
    }
}
