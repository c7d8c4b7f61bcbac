//! End-to-end observability tests: trace a two-node null RMI through the
//! CC++/ThAM stack and validate the exported artifacts.
//!
//! These cover the tracing acceptance criteria: the Chrome trace export
//! round-trips through a JSON parser with monotone timestamps, the trace
//! contains one complete marshal → send → dispatch → execute → reply →
//! unmarshal span chain, identical runs produce identical event streams,
//! and span self-times reconcile against the charged bucket totals.

use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig};
use mpmd_sim::{Fabric, Report, Sim, Span, TraceConfig, TraceEvent};
use std::path::Path;

fn traced_null_rmi() -> Report {
    Sim::new(2).tracing(TraceConfig::new()).run(|ctx| {
        cx::init(&ctx, CcxxConfig::tham());
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            let r = cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Blocking);
            assert_eq!(r.words, [0; 4]);
        }
        cx::barrier(&ctx);
        cx::finalize(&ctx);
    })
}

#[test]
fn traced_runs_are_deterministic() {
    let a = traced_null_rmi();
    let b = traced_null_rmi();
    assert_eq!(a.clocks, b.clocks);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.to_jsonl(), tb.to_jsonl());
    assert_eq!(ta.to_chrome_trace(), tb.to_chrome_trace());
}

/// Both exporters' bytes for the traced null RMI are pinned: archived traces
/// stay loadable and diffable. Regenerate after a deliberate format change
/// with `UPDATE_GOLDEN=1 cargo test -p mpmd-bench --test trace_observability`.
#[test]
fn exports_match_golden() {
    let log = traced_null_rmi().trace.unwrap();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    for (file, text) in [
        ("null_rmi.jsonl", log.to_jsonl()),
        ("null_rmi.chrome.json", log.to_chrome_trace()),
    ] {
        let golden = dir.join(file);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden, &text).expect("writing trace golden");
        }
        let expected = std::fs::read_to_string(&golden)
            .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test");
        assert!(
            text == expected,
            "export drifted from testdata/{file}; regenerate with UPDATE_GOLDEN=1 \
             if the change is deliberate"
        );
    }
}

#[test]
fn chrome_trace_round_trips_with_monotone_timestamps() {
    let report = traced_null_rmi();
    let log = report.trace.as_ref().expect("tracing was enabled");
    assert_eq!(log.total_dropped(), 0, "default ring must hold a null RMI");

    let text = log.to_chrome_trace();
    let doc: serde_json::Value =
        serde_json::from_str(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts = -1.0f64;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(matches!(ph, "M" | "X" | "i"), "unexpected phase {ph}");
        if ph == "M" {
            continue;
        }
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts field");
        assert!(
            ts >= last_ts,
            "timestamps must be sorted: {ts} after {last_ts}"
        );
        last_ts = ts;
        if ph == "X" {
            assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
            assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        }
    }
}

/// Find the first completed frame named `name` on `node` starting at or
/// after `from`, panicking with the available names on failure.
fn find_span<'a>(spans: &'a [Span], node: usize, name: &str, from: u64) -> &'a Span {
    spans
        .iter()
        .filter(|s| s.node == node && s.name == name && s.start >= from)
        .min_by_key(|s| s.start)
        .unwrap_or_else(|| {
            let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
            panic!("no span {name} on node {node} from t={from}; have {names:?}")
        })
}

#[test]
fn null_rmi_has_complete_span_chain() {
    let report = traced_null_rmi();
    let log = report.trace.as_ref().unwrap();
    let spans = log.spans();

    // The RMI lifecycle in causal order. The request is marshalled and sent
    // on node 0, dispatched / executed / replied on node 1, and the return
    // value unmarshalled back on node 0.
    let marshal = find_span(&spans, 0, "rmi.marshal", 0);
    let send = find_span(&spans, 0, "rmi.send", marshal.start);
    let dispatch = find_span(&spans, 1, "rmi.dispatch", 0);
    let execute = find_span(&spans, 1, "rmi.execute", dispatch.start);
    let reply = find_span(&spans, 1, "rmi.reply", execute.start);
    let unmarshal = find_span(&spans, 0, "rmi.unmarshal", send.start);

    assert!(marshal.start <= send.start);
    assert!(dispatch.start <= execute.start);
    assert!(execute.end <= reply.start || execute.end <= reply.end);
    assert!(send.end <= unmarshal.start);
    // The reply cannot be consumed before it was issued (clocks are per
    // node but message delivery orders these causally).
    assert!(reply.start <= unmarshal.end);

    // The marshal frame is pure local compute: no parks, so its wall
    // duration is exactly its charged self-time.
    assert_eq!(marshal.duration(), marshal.charged_ns);
    assert!(marshal.charged_ns > 0);
}

#[test]
fn span_self_times_reconcile_with_bucket_charges() {
    let report = traced_null_rmi();
    let log = report.trace.as_ref().unwrap();
    assert_eq!(log.total_dropped(), 0);

    // Every clock charge is emitted as a Charge event, so per node the
    // traced charge stream must sum exactly to the stats bucket totals.
    for (node, nt) in log.nodes.iter().enumerate() {
        let traced: u64 = nt
            .events
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Charge { ns, .. } => Some(ns),
                _ => None,
            })
            .sum();
        assert_eq!(
            traced,
            report.stats[node].charged_total(),
            "node {node}: traced charges must equal charged bucket totals"
        );
    }

    // Span self-times partition a subset of those charges: each charge is
    // attributed to at most one frame, so the sum over completed frames can
    // never exceed the machine-wide charged total.
    let span_charged: u64 = log.spans().iter().map(|s| s.charged_ns).sum();
    let total_charged: u64 = report.stats.iter().map(|s| s.charged_total()).sum();
    assert!(span_charged <= total_charged);
    assert!(span_charged > 0);

    // And each frame's self-time fits inside its own wall duration.
    for s in log.spans() {
        assert!(
            s.charged_ns <= s.duration(),
            "span {} charged {} > duration {}",
            s.name,
            s.charged_ns,
            s.duration()
        );
    }
}
