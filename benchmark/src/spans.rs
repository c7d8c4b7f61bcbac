//! Span recording from the benchmark's own files.
//!
//! A span is (name, start, end, parent), recorded around a call into one of
//! the repository's layers — never inside them; tracing inside the program
//! is a later change. Each thread owns a preallocated buffer, so recording
//! takes no lock and does not allocate; buffers are handed to a global sink
//! when their thread is done and written out when the benchmark ends. The
//! same `Instant` pair that fills a span also yields the latency sample, so
//! a traced and an untraced run time exactly the same region.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans one thread may hold; later ones are dropped and counted.
pub const THREAD_CAPACITY: usize = 1 << 16;
/// Events one Chrome trace file aims for, shared equally among threads; the
/// rest are counted as omitted.
const CHROME_EVENT_CAP: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process: one timeline for every
/// thread.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate the call goes into.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
}

/// A finished thread's spans. `cause` names the span on another thread that
/// started this one (`"<thread>:<index>"`), so the tree workload → rep →
/// rung → op survives the hop onto a fabric node thread.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    pub thread: String,
    pub cause: Option<String>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// One thread's recorder. With recording off it still times (the `Instant`
/// pair is the measurement) but stores nothing.
pub struct Recorder {
    on: bool,
    thread: String,
    cause: Option<String>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

/// Handle for a span opened with [`Recorder::open`].
#[must_use = "close the span"]
pub struct Open(u32);

impl Recorder {
    pub fn new(on: bool, thread: &str, cause: Option<String>) -> Self {
        Recorder {
            on,
            thread: thread.to_string(),
            cause,
            spans: Vec::with_capacity(if on { THREAD_CAPACITY } else { 0 }),
            stack: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// `"<thread>:<index>"` of the innermost open span, for a child thread's
    /// `cause`.
    pub fn current_ref(&self) -> Option<String> {
        let top = *self.stack.last()?;
        Some(format!("{}:{}", self.thread, top))
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) -> u32 {
        if self.spans.len() == THREAD_CAPACITY {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
        });
        (self.spans.len() - 1) as u32
    }

    /// Open an enclosing span (workload, rep, rung).
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.push(name, now_ns(), 0);
        if idx != NO_PARENT {
            self.stack.push(idx);
        }
        Open(idx)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        self.spans[open.0 as usize].end = now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans closed out of order");
    }

    /// Time one call into a layer; returns its result and duration in ns.
    #[inline]
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        if self.on {
            self.push(name, t0, t1);
        }
        (r, t1 - t0)
    }

    /// Hand this thread's spans to the sink (no-op with recording off).
    pub fn finish(self) {
        if self.on {
            debug_assert!(self.stack.is_empty(), "span left open");
            SINK.lock().expect("span sink poisoned").push(ThreadTrace {
                thread: self.thread,
                cause: self.cause,
                spans: self.spans,
                dropped: self.dropped,
            });
        }
    }
}

/// Everything recorded so far, leaving the sink empty.
pub fn take_all() -> Vec<ThreadTrace> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Self time of each span: its duration minus the part covered by its direct
/// children. Children of one parent on one thread never overlap (they are
/// opened and closed in program order), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end.saturating_sub(s.start));
        }
    }
    own
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-span-name totals over all threads: the per-layer table. A thread
/// started by a span on another thread (its `cause`) counts as that span's
/// child, so a rep's self time excludes the rungs that ran on fabric node
/// threads.
pub fn totals_by_name(threads: &[ThreadTrace]) -> BTreeMap<&'static str, NameTotals> {
    let dur = |s: &Span| s.end.saturating_sub(s.start);
    let mut own: Vec<Vec<u64>> = threads.iter().map(|t| self_times(&t.spans)).collect();
    let by_thread: BTreeMap<&str, usize> = threads
        .iter()
        .enumerate()
        .map(|(i, t)| (t.thread.as_str(), i))
        .collect();
    for t in threads {
        let parent = t.cause.as_deref().and_then(|c| c.rsplit_once(':'));
        let Some((thread, index)) = parent else {
            continue;
        };
        let slot = by_thread
            .get(thread)
            .zip(index.parse::<usize>().ok())
            .and_then(|(ti, si)| own[*ti].get_mut(si));
        if let Some(slot) = slot {
            let roots: u64 = t
                .spans
                .iter()
                .filter(|s| s.parent == NO_PARENT)
                .map(dur)
                .sum();
            *slot = slot.saturating_sub(roots);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (t, own) in threads.iter().zip(own) {
        for (s, own) in t.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur(s);
            e.self_ns += own;
        }
    }
    out
}

/// The layer of a span name: everything before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Write `threads` as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
/// Returns how many spans were left out by the per-file cap.
pub fn write_chrome(w: &mut impl Write, threads: &[ThreadTrace]) -> io::Result<usize> {
    // Every thread keeps its first spans, so every rung stays visible.
    let per_thread = (CHROME_EVENT_CAP / threads.len().max(1)).max(1_000);
    let mut omitted = 0usize;
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |w: &mut dyn Write| -> io::Result<()> {
        if !std::mem::take(&mut first) {
            write!(w, ",")?;
        }
        writeln!(w)
    };
    for (tid, t) in threads.iter().enumerate() {
        sep(w)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\",\"cause\":\"{}\",\"dropped\":{}}}}}",
            t.thread,
            t.cause.as_deref().unwrap_or(""),
            t.dropped
        )?;
        for (i, s) in t.spans.iter().enumerate() {
            if i >= per_thread {
                omitted += t.spans.len() - i;
                break;
            }
            sep(w)?;
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":\"{}:{i}\"",
                s.name,
                layer_of(s.name),
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                t.thread,
            )?;
            if s.parent != NO_PARENT {
                write!(w, ",\"parent\":\"{}:{}\"", t.thread, s.parent)?;
            } else if let Some(c) = &t.cause {
                write!(w, ",\"parent\":\"{c}\"")?;
            }
            write!(w, "}}}}")?;
        }
    }
    writeln!(w, "\n]}}")?;
    Ok(omitted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("bench.rep", 0, 100, NO_PARENT),
            span("bench.rung", 10, 60, 0), // child of rep
            span("ccxx.rmi", 10, 30, 1),   // adjacent children of rung
            span("ccxx.rmi", 30, 55, 1),
            span("bench.rung", 60, 90, 0), // second, adjacent rung
        ];
        // rep: 100 - (50 + 30); first rung: 50 - (20 + 25); leaves keep all.
        assert_eq!(self_times(&spans), vec![20, 5, 20, 25, 30]);
    }

    #[test]
    fn recorder_builds_the_parent_chain_and_times_leaves() {
        let mut r = Recorder::new(true, "t", None);
        let rep = r.open("bench.rep");
        assert_eq!(r.current_ref().as_deref(), Some("t:0"));
        let rung = r.open("bench.rung");
        let (v, ns) = r.timed("am.rtt", || 7);
        assert_eq!(v, 7);
        r.close(rung);
        r.close(rep);
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[1].parent, 0);
        assert_eq!(r.spans[2].parent, 1);
        assert_eq!(r.spans[2].end - r.spans[2].start, ns);
        assert!(r.spans[0].end >= r.spans[1].end);
    }

    #[test]
    fn recorder_off_stores_nothing_but_still_times() {
        let mut r = Recorder::new(false, "t", None);
        let o = r.open("bench.rep");
        let (_, ns) = r.timed("am.rtt", || std::hint::black_box(3));
        r.close(o);
        assert!(r.spans.is_empty() && r.spans.capacity() == 0);
        assert!(ns < 1_000_000_000);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut r = Recorder::new(true, "t", None);
        for _ in 0..THREAD_CAPACITY + 5 {
            r.timed("fabric.rtt", || ());
        }
        assert_eq!(r.spans.len(), THREAD_CAPACITY);
        assert_eq!(r.dropped, 5);
        // An enclosing span that does not fit is a no-op to close.
        let o = r.open("bench.rung");
        r.close(o);
        assert_eq!(r.dropped, 6);
    }

    #[test]
    fn totals_group_by_name_across_threads() {
        let a = ThreadTrace {
            thread: "a".into(),
            cause: None,
            spans: vec![
                span("bench.rung", 0, 10, NO_PARENT),
                span("am.rtt", 2, 6, 0),
            ],
            dropped: 0,
        };
        let b = ThreadTrace {
            thread: "b".into(),
            cause: Some("a:0".into()),
            spans: vec![span("am.rtt", 0, 3, NO_PARENT)],
            dropped: 0,
        };
        let t = totals_by_name(&[a.clone(), b.clone()]);
        assert_eq!(
            t["am.rtt"],
            NameTotals {
                count: 2,
                total_ns: 7,
                self_ns: 7
            }
        );
        // 10 - 4 (own child) - 3 (thread b, which it caused).
        assert_eq!(t["bench.rung"].self_ns, 3);
        assert_eq!(layer_of("am.rtt"), "am");

        let mut buf = Vec::new();
        assert_eq!(write_chrome(&mut buf, &[a, b]).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 5); // 2 thread names + 3 spans
        assert!(text.contains("\"parent\":\"a:0\""));
    }
}
