//! Structured event tracing for the simulated multicomputer.
//!
//! The paper's methodology (Section 4) rests on instrumenting both runtimes
//! "to account for the number, types, and sizes of message transfers as well
//! as the number of threads, context switches, and synchronization
//! operations". The [`Stats`](crate::Stats) counters give the *aggregate*
//! view; this module records the *sequence*: a typed, timestamped event
//! stream per node, so a single RMI can be decomposed into its
//! marshal → send → wire → dispatch → execute → reply → unmarshal phases and
//! cross-checked against the charged cost buckets.
//!
//! Event types map onto the paper's instrumentation categories as follows:
//!
//! * message transfers (number/type/size): [`TraceEvent::MsgSend`],
//!   [`TraceEvent::MsgDeliver`] carry wire sizes and endpoints;
//! * threads and context switches: [`TraceEvent::TaskSpawn`],
//!   [`TraceEvent::TaskSwitch`], [`TraceEvent::Park`],
//!   [`TraceEvent::Unpark`];
//! * synchronization operations: [`TraceEvent::BarrierEnter`] /
//!   [`TraceEvent::BarrierExit`] plus the `ThreadSync` charges visible as
//!   [`TraceEvent::Charge`];
//! * runtime phases: [`TraceEvent::SpanStart`] / [`TraceEvent::SpanEnd`]
//!   frames opened by the layered runtimes (RMI lifecycle, Split-C
//!   `get`/`put`/`store`, message handlers via
//!   [`TraceEvent::HandlerStart`] / [`TraceEvent::HandlerEnd`]).
//!
//! Collection is per-node into bounded ring buffers: when a ring overflows,
//! the oldest records are discarded and counted in
//! [`NodeTrace::dropped`] — truncation is never silent. One per-task frame
//! stack serves every reader of the frames: the emission check, the orphan
//! count, [`TraceLog::spans`] and [`fold_stacks`](crate::fold_stacks). The
//! finished [`TraceLog`] exports to Chrome `trace_event` JSON
//! ([`TraceLog::to_chrome_trace`], loadable in Perfetto /
//! `chrome://tracing`) or JSON-lines ([`TraceLog::to_jsonl`]), both from
//! one table of event fields.

use crate::stats::Bucket;
use crate::task::TaskId;
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Task id used on records emitted by the kernel itself (message delivery),
/// outside any task context.
pub const NO_TASK: TaskId = TaskId(u32::MAX);

/// Identifier of one span frame. `SpanId(0)` is the "tracing disabled"
/// sentinel: [`Fabric::span_start`](crate::Fabric::span_start) returns it when no
/// tracer is installed, and [`Fabric::span_end`](crate::Fabric::span_end) ignores
/// it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Whether this id came from a live tracer (non-sentinel).
    #[inline]
    pub fn is_active(self) -> bool {
        self.0 != 0
    }
}

/// One structured trace event. Emitted by the context holding the node's
/// baton, so the stream per node is totally ordered (and, on the
/// simulator, deterministic). Names are literals: recording one allocates
/// nothing.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A task was registered and enqueued.
    TaskSpawn { name: &'static str },
    /// The engine handed the baton to this record's task.
    TaskSwitch,
    /// The task parked (explicit park, sleep, join or inbox wait).
    Park,
    /// The task became runnable again.
    Unpark,
    /// A message left this node. `arrives` is the absolute delivery time on
    /// `dst` (wire latency is visible as `arrives - time`).
    MsgSend {
        dst: usize,
        wire_bytes: usize,
        arrives: Time,
    },
    /// A message reached this node's inbox.
    MsgDeliver { src: usize, wire_bytes: usize },
    /// An Active Message handler began executing (frame open). Its id is
    /// below `mpmd_am::HANDLER_ID_LIMIT` (256).
    HandlerStart { handler: u8 },
    /// The handler returned (frame close).
    HandlerEnd { handler: u8 },
    /// Virtual time was charged to a cost bucket.
    Charge { bucket: Bucket, ns: Time },
    /// The task entered the global barrier for `epoch`.
    BarrierEnter { epoch: u64 },
    /// The barrier released the task.
    BarrierExit { epoch: u64 },
    /// A named runtime phase opened (frame open).
    SpanStart { id: SpanId, name: &'static str },
    /// The phase closed. Ends must match the innermost open frame of the
    /// emitting task; the tracer panics otherwise.
    SpanEnd { id: SpanId },
    /// The reliable-delivery layer re-sent an unacknowledged packet.
    Retransmit { dst: usize, seq: u64 },
    /// Duplicate suppression discarded an already-delivered packet.
    DupDrop { src: usize, seq: u64 },
    /// The coalescing layer flushed an aggregation buffer as one wire frame.
    CoalesceFlush {
        dst: usize,
        msgs: u64,
        wire_bytes: usize,
    },
}

/// What a frame record opens or closes: a runtime span or a handler frame.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FrameKey {
    Span(SpanId),
    Handler(u8),
}

impl TraceEvent {
    /// The frame this record opens (`Some((key, true))`) or closes
    /// (`Some((key, false))`); `None` for every other event.
    fn frame(&self) -> Option<(FrameKey, bool)> {
        match *self {
            TraceEvent::SpanStart { id, .. } => Some((FrameKey::Span(id), true)),
            TraceEvent::SpanEnd { id } => Some((FrameKey::Span(id), false)),
            TraceEvent::HandlerStart { handler } => Some((FrameKey::Handler(handler), true)),
            TraceEvent::HandlerEnd { handler } => Some((FrameKey::Handler(handler), false)),
            _ => None,
        }
    }
}

/// A [`TraceEvent`] with its emission context.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// The emitting node's `now()` at emission (after any charge): virtual
    /// ns on the simulator, ns since the run began on the wall clock.
    pub time: Time,
    pub node: usize,
    /// Emitting task, or [`NO_TASK`] for kernel-level events.
    pub task: TaskId,
    pub event: TraceEvent,
}

/// Configuration for [`Sim::tracing`](crate::Sim::tracing) and
/// `LocalFabricBuilder::tracing`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity per node, in records. `0` disables collection.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

impl TraceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-node ring capacity (records kept per node).
    pub fn capacity(mut self, records: usize) -> Self {
        self.capacity = records;
        self
    }
}

/// Open frames per task, innermost last, under the one rule every reader
/// shares: a Start pushes onto its task's stack, an End closes the top
/// frame, and an End at an empty stack is an orphan. The tracer checks at
/// emission that each task's stream is well nested, and a ring loses only a
/// prefix of it, so every frame opened after a lost Start closes before that
/// frame's End arrives: an End whose Start is gone finds its stack empty.
struct FrameStacks<F>(Vec<Vec<F>>);

impl<F> FrameStacks<F> {
    fn open(&mut self, task: TaskId, frame: F) {
        let i = task.idx();
        if self.0.len() <= i {
            self.0.resize_with(i + 1, Vec::new);
        }
        self.0[i].push(frame);
    }

    /// Close `task`'s innermost frame: the frame and the depth it opened at
    /// (0 = outermost), or `None` for an orphan End.
    fn close(&mut self, task: TaskId) -> Option<(F, usize)> {
        let stack = self.0.get_mut(task.idx())?;
        let frame = stack.pop()?;
        Some((frame, stack.len()))
    }

    /// `task`'s open frames, innermost last.
    fn open_frames(&mut self, task: TaskId) -> &mut [F] {
        match self.0.get_mut(task.idx()) {
            Some(stack) => stack,
            None => &mut [],
        }
    }
}

/// A frame open during a [`replay`]: its Start record, and the time charged
/// while it was its task's innermost frame.
pub(crate) struct OpenFrame<'a> {
    start: &'a TraceRecord,
    charged: Time,
}

impl OpenFrame<'_> {
    /// The span's name, or `am.handler[<id>]` for a handler frame.
    pub(crate) fn name(&self) -> &'static str {
        match self.start.event {
            TraceEvent::HandlerStart { handler } => {
                static NAMES: OnceLock<Vec<String>> = OnceLock::new();
                let names =
                    NAMES.get_or_init(|| (0..=255).map(|h| format!("am.handler[{h}]")).collect());
                &names[usize::from(handler)]
            }
            TraceEvent::SpanStart { name, .. } => name,
            _ => unreachable!("only Start records open frames"),
        }
    }
}

/// What [`replay`] reports at a record of a node's stream.
pub(crate) enum Visit<'s, 'a> {
    /// `rec` closed `frame`, opened at nesting depth `depth`.
    Close {
        rec: &'a TraceRecord,
        frame: OpenFrame<'a>,
        depth: usize,
    },
    /// `rec` charged `ns` to its task, whose open frames are `stack`
    /// (innermost last, already credited).
    Charge {
        rec: &'a TraceRecord,
        ns: Time,
        stack: &'s [OpenFrame<'a>],
    },
}

/// Replay one node's records through its tasks' frame stacks, reporting each
/// closed frame and each charge to `visit`. Returns the number of orphan
/// Ends: Ends whose Start the ring discarded.
pub(crate) fn replay<'a>(events: &'a [TraceRecord], mut visit: impl FnMut(Visit<'_, 'a>)) -> u64 {
    let mut frames = FrameStacks(Vec::new());
    let mut orphans = 0;
    for rec in events {
        if let Some((_, opens)) = rec.event.frame() {
            if opens {
                let frame = OpenFrame {
                    start: rec,
                    charged: 0,
                };
                frames.open(rec.task, frame);
            } else if let Some((frame, depth)) = frames.close(rec.task) {
                visit(Visit::Close { rec, frame, depth });
            } else {
                orphans += 1;
            }
        } else if let TraceEvent::Charge { ns, .. } = rec.event {
            let stack = frames.open_frames(rec.task);
            if let Some(top) = stack.last_mut() {
                top.charged += ns;
            }
            visit(Visit::Charge { rec, ns, stack });
        }
    }
    orphans
}

/// One node's collector, kept in its [`Probe`](crate::Probe): the bounded
/// ring, what overflowed it, and each task's open frames, to catch a
/// mismatched End at emission. Span ids come from a counter the fabric
/// hands it, which the simulator shares among its nodes (one run-wide
/// sequence) and `LocalFabric` does not (ids per node, like its task ids).
pub(crate) struct TraceRing {
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    frames: FrameStacks<FrameKey>,
    span_ids: Arc<AtomicU64>,
}

impl TraceRing {
    pub(crate) fn new(config: &TraceConfig, span_ids: &Arc<AtomicU64>) -> Self {
        TraceRing {
            capacity: config.capacity,
            ring: VecDeque::new(),
            dropped: 0,
            frames: FrameStacks(Vec::new()),
            span_ids: Arc::clone(span_ids),
        }
    }

    pub(crate) fn alloc_span(&mut self) -> SpanId {
        // Relaxed: a baton hand-off orders the nodes that share a counter.
        SpanId(self.span_ids.fetch_add(1, Ordering::Relaxed) + 1)
    }

    pub(crate) fn record(&mut self, rec: TraceRecord) {
        // Check nesting first so misuse panics even with capacity 0: where a
        // replay would count an orphan or close another frame, this panics.
        let task = rec.task;
        match rec.event.frame() {
            Some((key, true)) => {
                if let FrameKey::Handler(_) = key {
                    self.alloc_span(); // a handler frame takes an id too
                }
                self.frames.open(task, key);
            }
            Some((key, false)) => match self.frames.close(task) {
                None => panic!("{key:?} ends on task {task:?}, which has no open span"),
                Some((top, _)) if top != key => {
                    panic!("{key:?} does not match innermost open span {top:?} on task {task:?}")
                }
                Some(_) => {}
            },
            None => {}
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    pub(crate) fn finish(self) -> NodeTrace {
        let events = Vec::from(self.ring);
        // An End whose Start the ring discarded carries no usable interval:
        // count it as dropped too, so truncation is visible rather than
        // silently shrinking the span set.
        let orphans = replay(&events, |_| {});
        NodeTrace {
            events,
            dropped: self.dropped + orphans,
        }
    }
}

/// Per-node event stream plus overflow accounting.
#[derive(Clone, Debug)]
pub struct NodeTrace {
    /// Collected records in emission order (oldest may be missing if the
    /// ring overflowed — check [`NodeTrace::dropped`]).
    pub events: Vec<TraceRecord>,
    /// Number of records discarded due to ring overflow (or discarded
    /// entirely when collection capacity is 0), plus surviving span/handler
    /// End records whose Begin was among the discarded (orphan Ends — they
    /// cannot be reconstructed into spans).
    pub dropped: u64,
}

/// A reconstructed span frame: a named interval on one task of one node.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span's id; `SpanId(0)` for a handler frame.
    pub id: SpanId,
    pub name: &'static str,
    pub node: usize,
    pub task: TaskId,
    pub start: Time,
    pub end: Time,
    /// Nesting depth at open (0 = outermost frame of its task).
    pub depth: usize,
    /// Virtual time charged while this frame was the innermost open frame of
    /// its task (self time; descendants account for their own).
    pub charged_ns: Time,
}

impl Span {
    /// Wall (virtual) duration of the frame.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// The result of a traced run, attached to
/// [`Report::trace`](crate::Report::trace).
#[derive(Clone, Debug)]
pub struct TraceLog {
    pub nodes: Vec<NodeTrace>,
}

impl TraceLog {
    /// Total records dropped across all nodes. Non-zero means the rings were
    /// too small for the run; [`TraceLog::spans`] is then best-effort.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped).sum()
    }

    /// All events of all nodes in one stream (per-node order preserved;
    /// nodes concatenated in index order).
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.nodes.iter().flat_map(|n| n.events.iter())
    }

    /// Reconstruct completed span frames (runtime spans *and* handler
    /// frames) from the event streams, in close order per node.
    ///
    /// Reconstruction is lenient about truncation: an end whose start was
    /// dropped from the ring is skipped, and frames still open at the end of
    /// the stream are omitted.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for (node, nt) in self.nodes.iter().enumerate() {
            replay(&nt.events, |visit| {
                let Visit::Close { rec, frame, depth } = visit else {
                    return;
                };
                out.push(Span {
                    id: match frame.start.event {
                        TraceEvent::SpanStart { id, .. } => id,
                        _ => SpanId(0),
                    },
                    name: frame.name(),
                    node,
                    task: rec.task,
                    start: frame.start.time,
                    end: rec.time,
                    depth,
                    charged_ns: frame.charged,
                });
            });
        }
        out
    }

    /// Export as Chrome `trace_event` JSON (the "JSON Array Format"), one
    /// thread track per node: spans and handler frames become `X` duration
    /// events, everything else becomes `i` instant events. Timestamps are
    /// virtual microseconds. Load the output in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        // (ts_ns, rendered event object), ties kept in push order
        let mut events: Vec<(Time, String)> = Vec::new();
        for (node, nt) in self.nodes.iter().enumerate() {
            events.push((
                0,
                format!(
                    r#"{{"ph":"M","pid":0,"tid":{node},"name":"thread_name","args":{{"name":"node {node}{}"}}}}"#,
                    if nt.dropped > 0 {
                        format!(" ({} dropped)", nt.dropped)
                    } else {
                        String::new()
                    }
                ),
            ));
        }
        for s in self.spans() {
            events.push((
                s.start,
                format!(
                    r#"{{"ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"name":{},"args":{{"task":{},"charged_ns":{}}}}}"#,
                    s.node,
                    fmt_us(s.start),
                    fmt_us(s.duration()),
                    json_string(s.name),
                    s.task.0,
                    s.charged_ns,
                ),
            ));
        }
        for (node, nt) in self.nodes.iter().enumerate() {
            // Frame records were exported as X events by the span pass.
            for rec in nt.events.iter().filter(|r| r.event.frame().is_none()) {
                let (name, fields) = event_fields(&rec.event);
                events.push((
                    rec.time,
                    format!(
                        r#"{{"ph":"i","pid":0,"tid":{node},"ts":{},"s":"t","name":"{name}","args":{{{fields}}}}}"#,
                        fmt_us(rec.time),
                    ),
                ));
            }
        }
        // Stable: events of one timestamp stay in push order.
        events.sort_by_key(|&(ts, _)| ts);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (_, body)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(body);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Export every record as one JSON object per line (JSONL), in per-node
    /// emission order. A record's `type` is its event name in snake case.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (node, nt) in self.nodes.iter().enumerate() {
            if nt.dropped > 0 {
                let _ = writeln!(
                    out,
                    r#"{{"type":"dropped","node":{},"count":{}}}"#,
                    node, nt.dropped
                );
            }
            for rec in &nt.events {
                let _ = write!(out, r#"{{"t":{},"node":{},"task":"#, rec.time, rec.node);
                if rec.task == NO_TASK {
                    out.push_str("null");
                } else {
                    let _ = write!(out, "{}", rec.task.0);
                }
                let (name, fields) = event_fields(&rec.event);
                out.push_str(r#","type":""#);
                for (i, c) in name.char_indices() {
                    if i > 0 && c.is_ascii_uppercase() {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                }
                out.push('"');
                if !fields.is_empty() {
                    out.push(',');
                    out.push_str(&fields);
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

/// Nanoseconds as a microsecond decimal string (exact: ns has 3 fractional
/// digits in µs).
fn fmt_us(ns: Time) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Minimal JSON string literal encoder for task, span and bucket names.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one table both exporters render: an event's name and its JSON
/// fields, as `"key":value` pairs without braces.
fn event_fields(ev: &TraceEvent) -> (&'static str, String) {
    match ev {
        TraceEvent::TaskSpawn { name } => ("TaskSpawn", format!(r#""name":{}"#, json_string(name))),
        TraceEvent::TaskSwitch => ("TaskSwitch", String::new()),
        TraceEvent::Park => ("Park", String::new()),
        TraceEvent::Unpark => ("Unpark", String::new()),
        TraceEvent::MsgSend {
            dst,
            wire_bytes,
            arrives,
        } => (
            "MsgSend",
            format!(r#""dst":{dst},"wire_bytes":{wire_bytes},"arrives_ns":{arrives}"#),
        ),
        TraceEvent::MsgDeliver { src, wire_bytes } => (
            "MsgDeliver",
            format!(r#""src":{src},"wire_bytes":{wire_bytes}"#),
        ),
        TraceEvent::HandlerStart { handler } => ("HandlerStart", format!(r#""handler":{handler}"#)),
        TraceEvent::HandlerEnd { handler } => ("HandlerEnd", format!(r#""handler":{handler}"#)),
        TraceEvent::Charge { bucket, ns } => (
            "Charge",
            format!(r#""bucket":{},"ns":{ns}"#, json_string(bucket.label())),
        ),
        TraceEvent::BarrierEnter { epoch } => ("BarrierEnter", format!(r#""epoch":{epoch}"#)),
        TraceEvent::BarrierExit { epoch } => ("BarrierExit", format!(r#""epoch":{epoch}"#)),
        TraceEvent::SpanStart { id, name } => (
            "SpanStart",
            format!(r#""span":{},"name":{}"#, id.0, json_string(name)),
        ),
        TraceEvent::SpanEnd { id } => ("SpanEnd", format!(r#""span":{}"#, id.0)),
        TraceEvent::Retransmit { dst, seq } => {
            ("Retransmit", format!(r#""dst":{dst},"seq":{seq}"#))
        }
        TraceEvent::DupDrop { src, seq } => ("DupDrop", format!(r#""src":{src},"seq":{seq}"#)),
        TraceEvent::CoalesceFlush {
            dst,
            msgs,
            wire_bytes,
        } => (
            "CoalesceFlush",
            format!(r#""dst":{dst},"msgs":{msgs},"wire_bytes":{wire_bytes}"#),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(capacity: usize) -> TraceRing {
        TraceRing::new(&TraceConfig::new().capacity(capacity), &Arc::default())
    }

    fn log(ring: TraceRing) -> TraceLog {
        TraceLog {
            nodes: vec![ring.finish()],
        }
    }

    fn rec(time: Time, node: usize, task: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time,
            node,
            task: TaskId(task),
            event,
        }
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let mut tr = ring(2);
        for i in 0..5 {
            tr.record(rec(i, 0, 0, TraceEvent::Park));
        }
        let log = log(tr);
        assert_eq!(log.nodes[0].events.len(), 2);
        assert_eq!(log.nodes[0].dropped, 3);
        assert_eq!(log.total_dropped(), 3);
        // Oldest dropped, newest kept.
        assert_eq!(log.nodes[0].events[0].time, 3);
        assert_eq!(log.nodes[0].events[1].time, 4);
    }

    #[test]
    fn overflow_mid_span_counts_orphan_end_as_dropped() {
        // Ring of 2: the SpanStart is pushed out by the Parks, leaving an
        // End with no Begin. It must count toward `dropped` (2 overflow + 1
        // orphan End) and never attach to a wrong frame.
        let mut tr = ring(2);
        let id = tr.alloc_span();
        tr.record(rec(0, 0, 0, TraceEvent::SpanStart { id, name: "lost" }));
        tr.record(rec(1, 0, 0, TraceEvent::Park));
        tr.record(rec(2, 0, 0, TraceEvent::Unpark));
        tr.record(rec(3, 0, 0, TraceEvent::SpanEnd { id }));
        let log = log(tr);
        assert_eq!(log.nodes[0].dropped, 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn overflow_mid_handler_counts_orphan_end_as_dropped() {
        let mut tr = ring(2);
        tr.record(rec(0, 0, 0, TraceEvent::HandlerStart { handler: 7 }));
        tr.record(rec(1, 0, 0, TraceEvent::Park));
        tr.record(rec(2, 0, 0, TraceEvent::Unpark));
        tr.record(rec(3, 0, 0, TraceEvent::HandlerEnd { handler: 7 }));
        let log = log(tr);
        assert_eq!(log.nodes[0].dropped, 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn intact_nested_spans_report_no_orphans() {
        // Overflow that discards only *complete* leading records must not
        // inflate `dropped` beyond the ring accounting.
        let mut tr = ring(4);
        tr.record(rec(0, 0, 0, TraceEvent::Park));
        tr.record(rec(1, 0, 0, TraceEvent::Unpark));
        let id = tr.alloc_span();
        tr.record(rec(2, 0, 0, TraceEvent::SpanStart { id, name: "kept" }));
        tr.record(rec(
            3,
            0,
            0,
            TraceEvent::Charge {
                bucket: Bucket::Cpu,
                ns: 10,
            },
        ));
        tr.record(rec(4, 0, 0, TraceEvent::SpanEnd { id }));
        tr.record(rec(5, 0, 0, TraceEvent::Park));
        let log = log(tr);
        assert_eq!(log.nodes[0].dropped, 2); // the two leading records only
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "kept");
    }

    #[test]
    fn spans_reconstruct_with_nesting_and_charges() {
        let mut tr = ring(1 << 16);
        let outer = tr.alloc_span();
        tr.record(rec(
            100,
            0,
            7,
            TraceEvent::SpanStart {
                id: outer,
                name: "outer",
            },
        ));
        tr.record(rec(
            150,
            0,
            7,
            TraceEvent::Charge {
                bucket: Bucket::Cpu,
                ns: 50,
            },
        ));
        let inner = tr.alloc_span();
        tr.record(rec(
            150,
            0,
            7,
            TraceEvent::SpanStart {
                id: inner,
                name: "inner",
            },
        ));
        tr.record(rec(
            250,
            0,
            7,
            TraceEvent::Charge {
                bucket: Bucket::Net,
                ns: 100,
            },
        ));
        tr.record(rec(250, 0, 7, TraceEvent::SpanEnd { id: inner }));
        tr.record(rec(300, 0, 7, TraceEvent::SpanEnd { id: outer }));
        let spans = log(tr).spans();
        assert_eq!(spans.len(), 2);
        // Close order: inner first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].duration(), 100);
        assert_eq!(spans[0].charged_ns, 100);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].duration(), 200);
        assert_eq!(spans[1].charged_ns, 50); // self time only
    }

    /// A ring that loses the start of two tasks' outer frames mid-frame: the
    /// folded stacks and the span self times come from one replay, so every
    /// stack's weight is its innermost frame's self time, and each surviving
    /// End without a Start is counted once as dropped.
    #[test]
    fn truncated_ring_folds_and_spans_agree() {
        let mut tr = ring(14);
        let charge = |ns| TraceEvent::Charge {
            bucket: Bucket::Cpu,
            ns,
        };
        let begin = |tr: &mut TraceRing, t, task, name| {
            let id = tr.alloc_span();
            tr.record(rec(t, 0, task, TraceEvent::SpanStart { id, name }));
            id
        };
        let lost1 = begin(&mut tr, 0, 1, "lost1");
        let lost2 = begin(&mut tr, 0, 2, "lost2");
        tr.record(rec(1, 0, 1, charge(1000))); // the ring drops these three
        let a = begin(&mut tr, 2, 1, "a");
        tr.record(rec(3, 0, 1, charge(3)));
        tr.record(rec(4, 0, 1, TraceEvent::HandlerStart { handler: 7 }));
        tr.record(rec(5, 0, 1, charge(5)));
        tr.record(rec(6, 0, 1, TraceEvent::HandlerEnd { handler: 7 }));
        tr.record(rec(7, 0, 1, charge(2)));
        tr.record(rec(8, 0, 1, TraceEvent::SpanEnd { id: a }));
        tr.record(rec(9, 0, 2, charge(4)));
        tr.record(rec(10, 0, 1, TraceEvent::SpanEnd { id: lost1 }));
        tr.record(rec(11, 0, 2, TraceEvent::SpanEnd { id: lost2 }));
        let b = begin(&mut tr, 12, 2, "b");
        tr.record(rec(13, 0, 2, charge(11)));
        tr.record(rec(14, 0, 2, TraceEvent::SpanEnd { id: b }));
        tr.record(rec(15, 0, 1, charge(6)));
        let log = log(tr);
        assert_eq!(log.nodes[0].dropped, 3 + 2, "3 overflowed, 2 orphan Ends");

        let spans = log.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["am.handler[7]", "a", "b"]);
        let folded = crate::fold_stacks(&log);
        let mut framed = 0;
        for line in folded.lines() {
            let (path, ns) = line.rsplit_once(' ').unwrap();
            let ns: Time = ns.parse().unwrap();
            let frames: Vec<&str> = path.split(';').skip(2).collect();
            let Some(innermost) = frames.last() else {
                continue; // charged outside any surviving frame
            };
            let span = spans.iter().find(|s| s.name == *innermost).unwrap();
            assert_eq!(ns, span.charged_ns, "{line}");
            assert_eq!(frames.len(), span.depth + 1, "{line}");
            framed += 1;
        }
        assert_eq!(framed, spans.len(), "{folded}");
        assert!(folded.contains("node0;task1 6\n"), "{folded}");
        assert!(folded.contains("node0;task2 4\n"), "{folded}");
    }

    #[test]
    #[should_panic(expected = "does not match innermost open span")]
    fn mismatched_span_end_panics() {
        let mut tr = ring(1 << 16);
        let a = tr.alloc_span();
        let b = tr.alloc_span();
        tr.record(rec(0, 0, 0, TraceEvent::SpanStart { id: a, name: "a" }));
        tr.record(rec(0, 0, 0, TraceEvent::SpanStart { id: b, name: "b" }));
        tr.record(rec(1, 0, 0, TraceEvent::SpanEnd { id: a }));
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn span_end_without_start_panics() {
        let mut tr = ring(1 << 16);
        tr.record(rec(1, 0, 0, TraceEvent::SpanEnd { id: SpanId(9) }));
    }

    #[test]
    fn jsonl_escapes_and_labels() {
        let mut tr = ring(1 << 16);
        tr.record(rec(
            5,
            0,
            1,
            TraceEvent::TaskSpawn {
                name: "say \"hi\"\n",
            },
        ));
        tr.record(TraceRecord {
            time: 9,
            node: 0,
            task: NO_TASK,
            event: TraceEvent::MsgDeliver {
                src: 1,
                wire_bytes: 48,
            },
        });
        let jsonl = log(tr).to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""type":"task_spawn","name":"say \"hi\"\n""#));
        assert!(lines[1].contains(r#""task":null"#));
        assert!(lines[1].contains(r#""type":"msg_deliver","src":1,"wire_bytes":48}"#));
    }
}
