//! Virtual-time profiles from the structured event trace.
//!
//! [`fold_stacks`] turns a [`TraceLog`] into collapsed-stack text — the
//! `folded` format consumed by inferno / flamegraph.pl / speedscope — where
//! the sample weight of each stack is the **charged virtual time** (in ns)
//! attributed while that stack was active. Because charges are the only way
//! time passes on a node, the folded output is an exact decomposition of all
//! charged node-time; wire/idle time (the paper's residual "net" component)
//! has no owning stack and does not appear.
//!
//! Stacks are rooted `node<N>;<task name>` and extend through the open
//! span/handler frames, from the same replay as [`TraceLog::spans`]: a
//! stack's weight is the self time of its innermost frame. [`phase_profile`]
//! aggregates the outermost (depth-0) spans by name into a per-phase table:
//! wall duration, self (charged) time, and frame count.

use crate::time::Time;
use crate::trace::{replay, TraceEvent, TraceLog, Visit};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Collapse a trace into flamegraph "folded stacks" text: one line per
/// distinct stack, `frame;frame;... <charged ns>`, sorted by stack path.
///
/// Render with e.g. `inferno-flamegraph < out.folded > out.svg`.
pub fn fold_stacks(log: &TraceLog) -> String {
    // Task names come from the spawn records (all tasks, including each
    // node's bootstrap "main", emit one when tracing is on).
    let mut task_names: HashMap<u32, &str> = HashMap::new();
    for rec in log.events() {
        if let TraceEvent::TaskSpawn { name } = &rec.event {
            task_names.insert(rec.task.0, name);
        }
    }
    let mut folded: BTreeMap<String, Time> = BTreeMap::new();
    for (node, nt) in log.nodes.iter().enumerate() {
        replay(&nt.events, |visit| {
            let Visit::Charge { rec, ns, stack } = visit else {
                return;
            };
            let mut path = format!("node{node};");
            match task_names.get(&rec.task.0) {
                Some(name) => path.push_str(name),
                None => {
                    let _ = write!(path, "task{}", rec.task.0);
                }
            }
            for frame in stack {
                let _ = write!(path, ";{frame}");
            }
            *folded.entry(path).or_insert(0) += ns;
        });
    }
    let mut out = String::new();
    for (path, ns) in folded {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// One aggregated top-level phase of a traced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Span name (depth-0 spans only).
    pub name: String,
    /// Completed frames under this name.
    pub count: u64,
    /// Summed wall (virtual) duration of the frames.
    pub total_ns: Time,
    /// Summed self time (charges attributed while innermost).
    pub charged_ns: Time,
}

/// Aggregate the outermost (depth-0) spans by name, sorted by name — the
/// per-phase virtual-time profile of a run whose phases are bracketed by
/// top-level spans.
pub fn phase_profile(log: &TraceLog) -> Vec<Phase> {
    let mut map: BTreeMap<String, Phase> = BTreeMap::new();
    for s in log.spans() {
        if s.depth != 0 {
            continue;
        }
        let e = map.entry(s.name.clone()).or_insert_with(|| Phase {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            charged_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.duration();
        e.charged_ns += s.charged_ns;
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::stats::Bucket;
    use crate::trace::{TraceConfig, TraceEvent};
    use crate::Fabric;

    fn traced_run() -> TraceLog {
        Sim::new(2)
            .tracing(TraceConfig::new())
            .run(|ctx| {
                let outer = ctx.span("phase.outer");
                ctx.charge(Bucket::Cpu, 100);
                {
                    let _inner = ctx.span("step.inner");
                    ctx.charge(Bucket::Runtime, 40);
                }
                ctx.charge(Bucket::Cpu, 10);
                drop(outer);
                ctx.charge(Bucket::Net, 5);
            })
            .trace
            .expect("tracing enabled")
    }

    #[test]
    fn folded_stacks_decompose_all_charged_time() {
        let txt = fold_stacks(&traced_run());
        let mut lines: Vec<&str> = txt.lines().collect();
        lines.sort();
        // Both nodes produce the same three stacks.
        for node in 0..2 {
            assert!(lines.contains(&&*format!("node{node};main 5")), "{txt}");
            assert!(
                lines.contains(&&*format!("node{node};main;phase.outer 110")),
                "{txt}"
            );
            assert!(
                lines.contains(&&*format!("node{node};main;phase.outer;step.inner 40")),
                "{txt}"
            );
        }
        // Total folded weight equals total charged time (2 nodes x 155 ns).
        let total: u64 = txt
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 310);
    }

    #[test]
    fn folded_output_is_sorted_and_deterministic() {
        let a = fold_stacks(&traced_run());
        let b = fold_stacks(&traced_run());
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "folded lines must come out sorted");
    }

    #[test]
    fn phase_profile_aggregates_top_level_spans() {
        let phases = phase_profile(&traced_run());
        assert_eq!(phases.len(), 1, "only depth-0 spans count: {phases:?}");
        let p = &phases[0];
        assert_eq!(p.name, "phase.outer");
        assert_eq!(p.count, 2); // one frame per node
        assert_eq!(p.total_ns, 300); // 150 wall ns per node
        assert_eq!(p.charged_ns, 220); // 110 self ns per node
    }

    #[test]
    fn handler_frames_appear_in_stacks() {
        let log = Sim::new(1)
            .tracing(TraceConfig::new())
            .run(|ctx| {
                ctx.trace_event(|| TraceEvent::HandlerStart { handler: 7 });
                ctx.charge(Bucket::Net, 9);
                ctx.trace_event(|| TraceEvent::HandlerEnd { handler: 7 });
            })
            .trace
            .unwrap();
        let txt = fold_stacks(&log);
        assert!(txt.contains("node0;main;am.handler[7] 9"), "{txt}");
    }
}
