//! The RMI wire encoding (`rmi.rs`) at its edges, on both fabrics.
//!
//! A request carries the whole call in its frame: the first argument word
//! packs the stub address (or, cold, the method name's length), the call
//! mode, the word count and a processor-object id; the other three carry
//! the first three words; argument bytes, and a cold call's method name and
//! program id, ride the bulk payload. A reply carries the return's words as
//! its arguments and its bytes as its payload. Every case below checks, in
//! the stub, that it sees exactly the words, object and bytes that were
//! sent, and at the caller, that it gets back exactly the words and bytes
//! returned: 0 to 4 words, every [`CallMode`], a cold first call then a warm
//! second one, with and without a processor object, no argument bytes, an empty
//! payload and a full one, word and bulk returns, and a node calling itself.
//! The whole battery runs with the stub cache on and off (off, every call is
//! cold).

use bytes::Bytes;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, CxObjPtr, CxPtr, Marshal, MarshalBuf, RmiArgs, RmiRet};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::Sim;

const MODES: [CallMode; 5] = [
    CallMode::Simple,
    CallMode::Blocking,
    CallMode::Threaded,
    CallMode::Atomic,
    CallMode::Optimistic,
];

/// What a call sends as marshalled arguments.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Payload {
    /// No payload at all: the stub sees `None`.
    Absent,
    /// A payload with no bytes in it: the stub sees `Some` of nothing.
    Empty,
    /// A few dozen bytes.
    Full,
}

/// One call shape.
#[derive(Copy, Clone, Debug)]
struct Case {
    mode: CallMode,
    words: usize,
    payload: Payload,
    /// Whether the method is a processor object's.
    obj: bool,
    /// Whether node 0 calls itself rather than node 1.
    to_self: bool,
    /// Whether the return carries bytes as well as words.
    bulk_ret: bool,
    /// The method's blocking hint (what an `Optimistic` call runs by).
    may_block: bool,
}

/// Every combination, numbered.
const CASES: usize = 5 * 5 * 3 * 2 * 2 * 2 * 2;

fn case(k: usize) -> Case {
    let mut rest = k;
    let mut digit = |n: usize| {
        let d = rest % n;
        rest /= n;
        d
    };
    Case {
        mode: MODES[digit(5)],
        words: digit(5),
        payload: [Payload::Absent, Payload::Empty, Payload::Full][digit(3)],
        obj: digit(2) == 1,
        to_self: digit(2) == 1,
        bulk_ret: digit(2) == 1,
        may_block: digit(2) == 1,
    }
}

/// Case `k`'s four candidate words, spanning all 64 bits.
fn words_of(k: usize) -> [u64; 4] {
    let k = k as u64;
    [
        u64::MAX - k,
        1 << 63 | k,
        0x0123_4567_89AB_CDEF ^ k,
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
    ]
}

/// Bytes of a length and content particular to `seed`.
fn bytes_of(seed: usize) -> Vec<u8> {
    (0..seed % 41 + 1).map(|i| (i * 31 + seed) as u8).collect()
}

/// Case `k`'s method name: names of different lengths make cold images of
/// different shapes.
fn name_of(k: usize) -> String {
    format!("m{k}")
}

/// What case `k`'s stub returns.
fn ret_of(k: usize) -> RmiRet {
    RmiRet {
        words: words_of(k).map(|w| w.rotate_left(17)),
        data: case(k).bulk_ret.then(|| Bytes::from(bytes_of(k + 7))),
    }
}

/// Argument bytes, written as they are.
struct Raw(Vec<u8>);

impl Marshal for Raw {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn read(_input: &mut &[u8]) -> Self {
        unreachable!("the stubs read the payload's bytes whole")
    }
}

/// A processor object that knows which node made it.
struct Probe {
    node: usize,
}

/// The stub's side of case `k`: check what arrived, return [`ret_of`].
fn serve(k: usize, node: usize, probe: Option<&Probe>, args: RmiArgs) -> RmiRet {
    let c = case(k);
    assert_eq!(args.src, 0, "case {k} {c:?}: caller");
    assert_eq!(*args.words, words_of(k)[..c.words], "case {k} {c:?}: words");
    let sent = match c.payload {
        Payload::Absent => None,
        Payload::Empty => Some(Vec::new()),
        Payload::Full => Some(bytes_of(k)),
    };
    assert_eq!(
        args.data.as_deref(),
        sent.as_deref(),
        "case {k} {c:?}: bytes"
    );
    // An object method's wrapper takes the id to find the object.
    assert_eq!(args.obj, None, "case {k} {c:?}: object id");
    assert_eq!(
        probe.map(|p| p.node),
        c.obj.then_some(node),
        "case {k} {c:?}: object"
    );
    ret_of(k)
}

fn battery<F: Fabric>(ctx: &F, cfg: CcxxConfig) {
    cx::init(ctx, cfg);
    let me = ctx.node();
    for k in 0..CASES {
        let c = case(k);
        if c.obj {
            cx::register_obj_method::<Probe, _, _>(
                ctx,
                &name_of(k),
                c.may_block,
                move |_, p, a| serve(k, me, Some(p), a),
            );
        } else {
            cx::register_method_full(
                ctx,
                cx::DEFAULT_PROGRAM,
                &name_of(k),
                c.may_block,
                move |_, a| serve(k, me, None, a),
            );
        }
    }
    // Each node's object id, where node 0 can read it.
    let ids = cx::alloc_region(ctx, 1, 0.0);
    let mine = cx::create_object(ctx, Probe { node: me });
    cx::with_local(ctx, ids, |v| v[0] = mine.obj as f64);
    cx::barrier(ctx);
    if me == 0 {
        let remote = CxObjPtr {
            node: 1,
            obj: cx::gp_read(
                ctx,
                CxPtr {
                    node: 1,
                    region: ids,
                    offset: 0,
                },
            ) as u64,
        };
        for k in 0..CASES {
            let c = case(k);
            let dst = if c.to_self { 0 } else { 1 };
            for pass in ["first", "second"] {
                let payload = match c.payload {
                    Payload::Absent => None,
                    Payload::Empty => Some(MarshalBuf::new()),
                    Payload::Full => {
                        let mut buf = MarshalBuf::new();
                        buf.push(ctx, &Raw(bytes_of(k)));
                        Some(buf)
                    }
                };
                let words = &words_of(k)[..c.words];
                let got = if c.obj {
                    let at = if c.to_self { mine } else { remote };
                    cx::rmi_obj(ctx, at, &name_of(k), words, payload, c.mode)
                } else {
                    cx::rmi(ctx, dst, &name_of(k), words, payload, c.mode)
                };
                let want = ret_of(k);
                assert_eq!(got.words, want.words, "{pass} case {k} {c:?}: words back");
                assert_eq!(got.data, want.data, "{pass} case {k} {c:?}: bytes back");
            }
        }
    }
    cx::finalize(ctx);
}

fn uncached() -> CcxxConfig {
    CcxxConfig {
        stub_caching: false,
        ..CcxxConfig::tham()
    }
}

#[test]
fn every_call_shape_arrives_and_returns_exactly_sim() {
    Sim::new(2).run(|ctx| battery(&ctx, CcxxConfig::tham()));
}

#[test]
fn every_call_shape_arrives_and_returns_exactly_local() {
    LocalFabric::run(2, |ctx| battery(&ctx, CcxxConfig::tham()));
}

#[test]
fn every_call_shape_arrives_and_returns_exactly_uncached_sim() {
    Sim::new(2).run(|ctx| battery(&ctx, uncached()));
}

#[test]
fn every_call_shape_arrives_and_returns_exactly_uncached_local() {
    LocalFabric::run(2, |ctx| battery(&ctx, uncached()));
}
