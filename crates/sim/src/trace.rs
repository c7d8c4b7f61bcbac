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
//! [`NodeTrace::dropped`] — truncation is never silent. The finished
//! [`TraceLog`] reconstructs span timelines ([`TraceLog::spans`]), builds
//! log2 latency histograms ([`TraceLog::span_histograms`]), and exports to
//! Chrome `trace_event` JSON ([`TraceLog::to_chrome_trace`], loadable in
//! Perfetto / `chrome://tracing`) or JSON-lines ([`TraceLog::to_jsonl`]).

use crate::stats::Bucket;
use crate::task::TaskId;
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt::Write as _;

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

/// One structured trace event. Emitted under the kernel lock, so the stream
/// per node is totally ordered and deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A task was registered and enqueued.
    TaskSpawn { name: String },
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
    /// An Active Message handler began executing (frame open).
    HandlerStart { handler: u32 },
    /// The handler returned (frame close).
    HandlerEnd { handler: u32 },
    /// Virtual time was charged to a cost bucket.
    Charge { bucket: Bucket, ns: Time },
    /// The task entered the global barrier for `epoch`.
    BarrierEnter { epoch: u64 },
    /// The barrier released the task.
    BarrierExit { epoch: u64 },
    /// A named runtime phase opened (frame open).
    SpanStart { id: SpanId, name: String },
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
    /// Free-text debug marker.
    Mark { text: String },
}

/// A [`TraceEvent`] with its emission context.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// The emitting node's virtual clock at emission (after any charge).
    pub time: Time,
    pub node: usize,
    /// Emitting task, or [`NO_TASK`] for kernel-level events.
    pub task: TaskId,
    pub event: TraceEvent,
}

/// Configuration for [`Sim::tracing`](crate::Sim::tracing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity per node, in records. `0` disables collection
    /// (events still reach the stderr sink if enabled).
    pub capacity: usize,
    /// Mirror events to stderr as they happen (debugging aid).
    pub stderr: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            stderr: false,
        }
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

    /// Enable/disable the live stderr sink.
    pub fn stderr(mut self, on: bool) -> Self {
        self.stderr = on;
        self
    }
}

struct NodeRing {
    ring: VecDeque<TraceRecord>,
    dropped: u64,
}

/// One open frame on a task's span stack.
struct Frame {
    id: SpanId,
    name: String,
}

/// Live collector owned by the kernel. All methods are called under the
/// kernel lock.
pub(crate) struct Tracer {
    config: TraceConfig,
    nodes: Vec<NodeRing>,
    /// Per-task stacks of open frames (spans and handler frames), used to
    /// catch mismatched ends at emission time.
    stacks: Vec<Vec<Frame>>,
    next_span: u64,
}

impl Tracer {
    pub(crate) fn new(nodes: usize, config: TraceConfig) -> Self {
        Tracer {
            nodes: (0..nodes)
                .map(|_| NodeRing {
                    ring: VecDeque::new(),
                    dropped: 0,
                })
                .collect(),
            stacks: Vec::new(),
            next_span: 0,
            config,
        }
    }

    pub(crate) fn alloc_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId(self.next_span)
    }

    fn stack_mut(&mut self, task: TaskId) -> &mut Vec<Frame> {
        let idx = task.idx();
        if self.stacks.len() <= idx {
            self.stacks.resize_with(idx + 1, Vec::new);
        }
        &mut self.stacks[idx]
    }

    pub(crate) fn record(&mut self, rec: TraceRecord) {
        // Maintain span stacks first so misuse panics even with capacity 0.
        match &rec.event {
            TraceEvent::SpanStart { id, name } => {
                let (id, name) = (*id, name.clone());
                self.stack_mut(rec.task).push(Frame { id, name });
            }
            TraceEvent::SpanEnd { id } => {
                let id = *id;
                let task = rec.task;
                let frame = self.stack_mut(task).pop().unwrap_or_else(|| {
                    panic!("span_end {id:?} on task {task:?} with no open span")
                });
                if frame.id != id {
                    panic!(
                        "span_end {:?} does not match innermost open span {:?} ('{}') on task {:?}",
                        id, frame.id, frame.name, task
                    );
                }
            }
            TraceEvent::HandlerStart { handler } => {
                let name = format!("am.handler[{handler}]");
                let id = self.alloc_span();
                self.stack_mut(rec.task).push(Frame { id, name });
            }
            TraceEvent::HandlerEnd { handler } => {
                let task = rec.task;
                let frame = self.stack_mut(task).pop().unwrap_or_else(|| {
                    panic!("handler_end [{handler}] on task {task:?} with no open frame")
                });
                let expect = format!("am.handler[{handler}]");
                if frame.name != expect {
                    panic!(
                        "handler_end [{}] does not match innermost open frame '{}' on task {:?}",
                        handler, frame.name, task
                    );
                }
            }
            _ => {}
        }
        if self.config.stderr {
            stderr_sink(&rec);
        }
        let node = &mut self.nodes[rec.node];
        if self.config.capacity == 0 {
            node.dropped += 1;
            return;
        }
        if node.ring.len() == self.config.capacity {
            node.ring.pop_front();
            node.dropped += 1;
        }
        node.ring.push_back(rec);
    }

    pub(crate) fn finish(self) -> TraceLog {
        TraceLog {
            nodes: self
                .nodes
                .into_iter()
                .map(|n| {
                    // An End record whose Begin was discarded by ring
                    // overflow carries no usable interval: count it as
                    // dropped too, so truncation is visible rather than
                    // silently shrinking the span set.
                    let orphan_ends = count_orphan_ends(&n.ring);
                    NodeTrace {
                        events: n.ring.into_iter().collect(),
                        dropped: n.dropped + orphan_ends,
                    }
                })
                .collect(),
        }
    }
}

/// Count End records (spans and handler frames) that do not close the frame
/// on top of the replayed per-task stack. Ring drops always discard the
/// *oldest* prefix of a node's stream, so a surviving End whose Begin was
/// dropped replays against an empty (or mismatching) stack — the streams are
/// panic-checked at emission time, so a mismatch here can only mean the
/// Begin is gone.
fn count_orphan_ends(events: &VecDeque<TraceRecord>) -> u64 {
    enum Open {
        Span(SpanId),
        Handler(u32),
    }
    let mut stacks: std::collections::HashMap<TaskId, Vec<Open>> = std::collections::HashMap::new();
    let mut orphans = 0;
    for rec in events {
        match &rec.event {
            TraceEvent::SpanStart { id, .. } => {
                stacks.entry(rec.task).or_default().push(Open::Span(*id));
            }
            TraceEvent::HandlerStart { handler } => {
                stacks
                    .entry(rec.task)
                    .or_default()
                    .push(Open::Handler(*handler));
            }
            TraceEvent::SpanEnd { id } => {
                let stack = stacks.entry(rec.task).or_default();
                match stack.last() {
                    Some(Open::Span(top)) if top == id => {
                        stack.pop();
                    }
                    _ => orphans += 1,
                }
            }
            TraceEvent::HandlerEnd { handler } => {
                let stack = stacks.entry(rec.task).or_default();
                match stack.last() {
                    Some(Open::Handler(top)) if top == handler => {
                        stack.pop();
                    }
                    _ => orphans += 1,
                }
            }
            _ => {}
        }
    }
    orphans
}

/// The legacy line-per-event debug output, preserved for `Sim::trace(true)`.
fn stderr_sink(rec: &TraceRecord) {
    let t = rec.time;
    let node = rec.node;
    match &rec.event {
        TraceEvent::TaskSpawn { .. } => {
            eprintln!("[sim] t={} spawn {:?} on node {}", t, rec.task, node);
        }
        TraceEvent::MsgSend {
            dst,
            wire_bytes,
            arrives,
        } => {
            eprintln!("[sim] t={t} node {node} -> node {dst} ({wire_bytes} B) arrives t={arrives}");
        }
        TraceEvent::MsgDeliver { .. } => {
            eprintln!("[sim] t={t} deliver to node {node}");
        }
        TraceEvent::Mark { text } => {
            eprintln!("[sim] t={} node {} {:?}: {}", t, node, rec.task, text);
        }
        TraceEvent::SpanStart { name, .. } => {
            eprintln!("[sim] t={} node {} {:?} span+ {}", t, node, rec.task, name);
        }
        TraceEvent::SpanEnd { .. } => {
            eprintln!("[sim] t={} node {} {:?} span-", t, node, rec.task);
        }
        // Scheduling and charge events are too chatty for the line sink by
        // default; they are only useful from the collected log.
        _ => {}
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
    pub id: SpanId,
    pub name: String,
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
        struct Open {
            id: SpanId,
            name: String,
            start: Time,
            charged: Time,
        }
        let mut out = Vec::new();
        for (node, nt) in self.nodes.iter().enumerate() {
            let mut stacks: std::collections::HashMap<TaskId, Vec<Open>> =
                std::collections::HashMap::new();
            for rec in &nt.events {
                match &rec.event {
                    TraceEvent::SpanStart { id, name } => {
                        stacks.entry(rec.task).or_default().push(Open {
                            id: *id,
                            name: name.clone(),
                            start: rec.time,
                            charged: 0,
                        });
                    }
                    TraceEvent::HandlerStart { handler } => {
                        stacks.entry(rec.task).or_default().push(Open {
                            id: SpanId(0),
                            name: format!("am.handler[{handler}]"),
                            start: rec.time,
                            charged: 0,
                        });
                    }
                    TraceEvent::SpanEnd { id } => {
                        let stack = stacks.entry(rec.task).or_default();
                        if stack.last().is_some_and(|f| f.id == *id) {
                            let f = stack.pop().expect("checked non-empty");
                            out.push(Span {
                                id: f.id,
                                name: f.name,
                                node,
                                task: rec.task,
                                start: f.start,
                                end: rec.time,
                                depth: stack.len(),
                                charged_ns: f.charged,
                            });
                        }
                    }
                    TraceEvent::HandlerEnd { handler } => {
                        let stack = stacks.entry(rec.task).or_default();
                        let expect = format!("am.handler[{handler}]");
                        if stack.last().is_some_and(|f| f.name == expect) {
                            let f = stack.pop().expect("checked non-empty");
                            out.push(Span {
                                id: f.id,
                                name: f.name,
                                node,
                                task: rec.task,
                                start: f.start,
                                end: rec.time,
                                depth: stack.len(),
                                charged_ns: f.charged,
                            });
                        }
                    }
                    TraceEvent::Charge { ns, .. } => {
                        if let Some(f) = stacks.get_mut(&rec.task).and_then(|s| s.last_mut()) {
                            f.charged += ns;
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Log2 histograms of span durations by span name: bucket `i` counts
    /// completed frames with `duration` in `[2^i, 2^(i+1))` ns (bucket 0 also
    /// holds zero-duration frames). Returned sorted by name.
    pub fn span_histograms(&self) -> Vec<(String, [u64; 40])> {
        let mut map: std::collections::BTreeMap<String, [u64; 40]> =
            std::collections::BTreeMap::new();
        for s in self.spans() {
            let h = map.entry(s.name.clone()).or_insert([0; 40]);
            let d = s.duration();
            let bucket = if d == 0 {
                0
            } else {
                (63 - d.leading_zeros() as usize).min(39)
            };
            h[bucket] += 1;
        }
        map.into_iter().collect()
    }

    /// Export as Chrome `trace_event` JSON (the "JSON Array Format"), one
    /// thread track per node: spans and handler frames become `X` duration
    /// events, everything else becomes `i` instant events. Timestamps are
    /// virtual microseconds. Load the output in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        // (ts_ns, tie-break order) -> rendered event object
        let mut events: Vec<(Time, u64, String)> = Vec::new();
        let mut order = 0u64;
        let mut push = |events: &mut Vec<(Time, u64, String)>, ts: Time, body: String| {
            events.push((ts, order, body));
            order += 1;
        };
        for (node, nt) in self.nodes.iter().enumerate() {
            push(
                &mut events,
                0,
                format!(
                    r#"{{"ph":"M","pid":0,"tid":{node},"name":"thread_name","args":{{"name":"node {node}{}"}}}}"#,
                    if nt.dropped > 0 {
                        format!(" ({} dropped)", nt.dropped)
                    } else {
                        String::new()
                    }
                ),
            );
        }
        for s in self.spans() {
            push(
                &mut events,
                s.start,
                format!(
                    r#"{{"ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"name":{},"args":{{"task":{},"charged_ns":{}}}}}"#,
                    s.node,
                    fmt_us(s.start),
                    fmt_us(s.duration()),
                    json_string(&s.name),
                    s.task.0,
                    s.charged_ns,
                ),
            );
        }
        for (node, nt) in self.nodes.iter().enumerate() {
            for rec in &nt.events {
                if let Some((name, args)) = instant_fields(&rec.event) {
                    push(
                        &mut events,
                        rec.time,
                        format!(
                            r#"{{"ph":"i","pid":0,"tid":{},"ts":{},"s":"t","name":{},"args":{args}}}"#,
                            node,
                            fmt_us(rec.time),
                            json_string(name),
                        ),
                    );
                }
            }
        }
        events.sort_by_key(|(ts, ord, _)| (*ts, *ord));
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (_, _, body)) in events.iter().enumerate() {
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
    /// emission order.
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
                out.push_str(&jsonl_record(rec));
                out.push('\n');
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

/// Minimal JSON string literal encoder for event/span names and marks.
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

/// Chrome instant-event name and args for non-span events; `None` for events
/// rendered as spans (or not rendered).
fn instant_fields(ev: &TraceEvent) -> Option<(&'static str, String)> {
    match ev {
        TraceEvent::TaskSpawn { name } => {
            Some(("TaskSpawn", format!(r#"{{"name":{}}}"#, json_string(name))))
        }
        TraceEvent::TaskSwitch => Some(("TaskSwitch", "{}".to_string())),
        TraceEvent::Park => Some(("Park", "{}".to_string())),
        TraceEvent::Unpark => Some(("Unpark", "{}".to_string())),
        TraceEvent::MsgSend {
            dst,
            wire_bytes,
            arrives,
        } => Some((
            "MsgSend",
            format!(r#"{{"dst":{dst},"wire_bytes":{wire_bytes},"arrives_ns":{arrives}}}"#),
        )),
        TraceEvent::MsgDeliver { src, wire_bytes } => Some((
            "MsgDeliver",
            format!(r#"{{"src":{src},"wire_bytes":{wire_bytes}}}"#),
        )),
        TraceEvent::Charge { bucket, ns } => Some((
            "Charge",
            format!(r#"{{"bucket":{},"ns":{ns}}}"#, json_string(bucket.label())),
        )),
        TraceEvent::BarrierEnter { epoch } => {
            Some(("BarrierEnter", format!(r#"{{"epoch":{epoch}}}"#)))
        }
        TraceEvent::BarrierExit { epoch } => {
            Some(("BarrierExit", format!(r#"{{"epoch":{epoch}}}"#)))
        }
        TraceEvent::Retransmit { dst, seq } => {
            Some(("Retransmit", format!(r#"{{"dst":{dst},"seq":{seq}}}"#)))
        }
        TraceEvent::DupDrop { src, seq } => {
            Some(("DupDrop", format!(r#"{{"src":{src},"seq":{seq}}}"#)))
        }
        TraceEvent::CoalesceFlush {
            dst,
            msgs,
            wire_bytes,
        } => Some((
            "CoalesceFlush",
            format!(r#"{{"dst":{dst},"msgs":{msgs},"wire_bytes":{wire_bytes}}}"#),
        )),
        TraceEvent::Mark { text } => Some(("Mark", format!(r#"{{"text":{}}}"#, json_string(text)))),
        // Frames are exported as X events by the span pass.
        TraceEvent::HandlerStart { .. }
        | TraceEvent::HandlerEnd { .. }
        | TraceEvent::SpanStart { .. }
        | TraceEvent::SpanEnd { .. } => None,
    }
}

fn jsonl_record(rec: &TraceRecord) -> String {
    let task = if rec.task == NO_TASK {
        "null".to_string()
    } else {
        rec.task.0.to_string()
    };
    let head = format!(r#"{{"t":{},"node":{},"task":{task}"#, rec.time, rec.node);
    let tail = match &rec.event {
        TraceEvent::TaskSpawn { name } => {
            format!(r#""type":"task_spawn","name":{}"#, json_string(name))
        }
        TraceEvent::TaskSwitch => r#""type":"task_switch""#.to_string(),
        TraceEvent::Park => r#""type":"park""#.to_string(),
        TraceEvent::Unpark => r#""type":"unpark""#.to_string(),
        TraceEvent::MsgSend {
            dst,
            wire_bytes,
            arrives,
        } => format!(
            r#""type":"msg_send","dst":{dst},"wire_bytes":{wire_bytes},"arrives_ns":{arrives}"#
        ),
        TraceEvent::MsgDeliver { src, wire_bytes } => {
            format!(r#""type":"msg_deliver","src":{src},"wire_bytes":{wire_bytes}"#)
        }
        TraceEvent::HandlerStart { handler } => {
            format!(r#""type":"handler_start","handler":{handler}"#)
        }
        TraceEvent::HandlerEnd { handler } => {
            format!(r#""type":"handler_end","handler":{handler}"#)
        }
        TraceEvent::Charge { bucket, ns } => format!(
            r#""type":"charge","bucket":{},"ns":{ns}"#,
            json_string(bucket.label())
        ),
        TraceEvent::BarrierEnter { epoch } => {
            format!(r#""type":"barrier_enter","epoch":{epoch}"#)
        }
        TraceEvent::BarrierExit { epoch } => {
            format!(r#""type":"barrier_exit","epoch":{epoch}"#)
        }
        TraceEvent::SpanStart { id, name } => format!(
            r#""type":"span_start","span":{},"name":{}"#,
            id.0,
            json_string(&name.clone())
        ),
        TraceEvent::SpanEnd { id } => format!(r#""type":"span_end","span":{}"#, id.0),
        TraceEvent::Retransmit { dst, seq } => {
            format!(r#""type":"retransmit","dst":{dst},"seq":{seq}"#)
        }
        TraceEvent::DupDrop { src, seq } => {
            format!(r#""type":"dup_drop","src":{src},"seq":{seq}"#)
        }
        TraceEvent::CoalesceFlush {
            dst,
            msgs,
            wire_bytes,
        } => {
            format!(
                r#""type":"coalesce_flush","dst":{dst},"msgs":{msgs},"wire_bytes":{wire_bytes}"#
            )
        }
        TraceEvent::Mark { text } => format!(r#""type":"mark","text":{}"#, json_string(text)),
    };
    format!("{head},{tail}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut tr = Tracer::new(1, TraceConfig::new().capacity(2));
        for i in 0..5 {
            tr.record(rec(i, 0, 0, TraceEvent::Park));
        }
        let log = tr.finish();
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
        let mut tr = Tracer::new(1, TraceConfig::new().capacity(2));
        let id = tr.alloc_span();
        tr.record(rec(
            0,
            0,
            0,
            TraceEvent::SpanStart {
                id,
                name: "lost".into(),
            },
        ));
        tr.record(rec(1, 0, 0, TraceEvent::Park));
        tr.record(rec(2, 0, 0, TraceEvent::Unpark));
        tr.record(rec(3, 0, 0, TraceEvent::SpanEnd { id }));
        let log = tr.finish();
        assert_eq!(log.nodes[0].dropped, 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn overflow_mid_handler_counts_orphan_end_as_dropped() {
        let mut tr = Tracer::new(1, TraceConfig::new().capacity(2));
        tr.record(rec(0, 0, 0, TraceEvent::HandlerStart { handler: 7 }));
        tr.record(rec(1, 0, 0, TraceEvent::Park));
        tr.record(rec(2, 0, 0, TraceEvent::Unpark));
        tr.record(rec(3, 0, 0, TraceEvent::HandlerEnd { handler: 7 }));
        let log = tr.finish();
        assert_eq!(log.nodes[0].dropped, 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn intact_nested_spans_report_no_orphans() {
        // Overflow that discards only *complete* leading records must not
        // inflate `dropped` beyond the ring accounting.
        let mut tr = Tracer::new(1, TraceConfig::new().capacity(4));
        tr.record(rec(0, 0, 0, TraceEvent::Park));
        tr.record(rec(1, 0, 0, TraceEvent::Unpark));
        let id = tr.alloc_span();
        tr.record(rec(
            2,
            0,
            0,
            TraceEvent::SpanStart {
                id,
                name: "kept".into(),
            },
        ));
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
        let log = tr.finish();
        assert_eq!(log.nodes[0].dropped, 2); // the two leading records only
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "kept");
    }

    #[test]
    fn spans_reconstruct_with_nesting_and_charges() {
        let mut tr = Tracer::new(1, TraceConfig::default());
        let outer = tr.alloc_span();
        tr.record(rec(
            100,
            0,
            7,
            TraceEvent::SpanStart {
                id: outer,
                name: "outer".into(),
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
                name: "inner".into(),
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
        let spans = tr.finish().spans();
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

    #[test]
    #[should_panic(expected = "does not match innermost open span")]
    fn mismatched_span_end_panics() {
        let mut tr = Tracer::new(1, TraceConfig::default());
        let a = tr.alloc_span();
        let b = tr.alloc_span();
        tr.record(rec(
            0,
            0,
            0,
            TraceEvent::SpanStart {
                id: a,
                name: "a".into(),
            },
        ));
        tr.record(rec(
            0,
            0,
            0,
            TraceEvent::SpanStart {
                id: b,
                name: "b".into(),
            },
        ));
        tr.record(rec(1, 0, 0, TraceEvent::SpanEnd { id: a }));
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn span_end_without_start_panics() {
        let mut tr = Tracer::new(1, TraceConfig::default());
        tr.record(rec(1, 0, 0, TraceEvent::SpanEnd { id: SpanId(9) }));
    }

    #[test]
    fn histograms_use_log2_buckets() {
        let mut tr = Tracer::new(1, TraceConfig::default());
        for (start, dur) in [(0u64, 1u64), (10, 3), (100, 1000)] {
            let id = tr.alloc_span();
            tr.record(rec(
                start,
                0,
                0,
                TraceEvent::SpanStart {
                    id,
                    name: "op".into(),
                },
            ));
            tr.record(rec(start + dur, 0, 0, TraceEvent::SpanEnd { id }));
        }
        let hist = tr.finish().span_histograms();
        assert_eq!(hist.len(), 1);
        let (name, h) = &hist[0];
        assert_eq!(name, "op");
        assert_eq!(h[0], 1); // 1 ns
        assert_eq!(h[1], 1); // 3 ns -> [2,4)
        assert_eq!(h[9], 1); // 1000 ns -> [512,1024)
    }

    #[test]
    fn jsonl_escapes_and_labels() {
        let mut tr = Tracer::new(1, TraceConfig::default());
        tr.record(rec(
            5,
            0,
            1,
            TraceEvent::Mark {
                text: "say \"hi\"\n".into(),
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
        let jsonl = tr.finish().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""text":"say \"hi\"\n""#));
        assert!(lines[1].contains(r#""task":null"#));
        assert!(lines[1].contains(r#""wire_bytes":48"#));
    }
}
