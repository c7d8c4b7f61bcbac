//! Message profiles: "the AM layer and the threads package have been
//! heavily instrumented to account for the number, types, and sizes of
//! message transfers as well as the number of threads, context switches,
//! and synchronization operations" — this binary prints that raw
//! instrumentation for each application and language, plus the per-run
//! src→dst traffic matrix recorded by the metrics registry.
//!
//! Usage: `cargo run --release -p mpmd-bench --bin msgprofile [--quick]`

use mpmd_bench::experiments::{run_profile_suite, Cell, Scale};
use mpmd_bench::fmt::{reject_unknown_args, render_table, take_json_flag, write_json, JsonReport};
use mpmd_bench::runner::take_jobs_flag;
use mpmd_sim::{size_bucket_limit, CostModel};
use serde::Serialize;

const USAGE: &str = "msgprofile [--quick] [-j N] [--json <path>]";

/// The whole profile report: one run per suite cell, each carrying its
/// ledger counters, size histogram, and metrics registry (latency histograms
/// and the keyed `net.msgs_to`/`net.bytes_to` traffic matrix).
struct MsgProfile {
    cells: Vec<Cell>,
}

impl JsonReport for MsgProfile {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        vec![
            ("table", "msgprofile".to_value()),
            (
                "runs",
                serde_json::Value::Array(self.cells.iter().map(Cell::to_json).collect()),
            ),
        ]
    }
}

fn hist_cells(c: &Cell) -> Vec<String> {
    let s = &c.breakdown.counts;
    let mut out = vec![
        format!("{} {}", c.lang.label(), c.label),
        s.msgs_sent.to_string(),
        s.short_msgs.to_string(),
        s.bulk_msgs.to_string(),
        format!("{:.1}", s.bytes_sent as f64 / 1024.0),
        s.thread_creates.to_string(),
        s.context_switches.to_string(),
        s.sync_ops.to_string(),
    ];
    for i in 0..6 {
        out.push(s.msg_size_hist[i].to_string());
    }
    out
}

/// Print one run's src→dst traffic matrix from the registry's keyed
/// counters (messages, with KiB after the slash; `-` for silent links).
fn print_traffic(c: &Cell) {
    let Some(m) = &c.breakdown.metrics else {
        return;
    };
    let n = m.nodes.len();
    let headers: Vec<String> = std::iter::once("src\\dst".to_string())
        .chain((0..n).map(|d| d.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|src| {
            let keyed = &m.nodes[src].keyed;
            let mut row = vec![src.to_string()];
            for dst in 0..n {
                let get = |name: &str| {
                    keyed
                        .get(name)
                        .and_then(|t| t.get(&(dst as u64)))
                        .copied()
                        .unwrap_or(0)
                };
                let (msgs, bytes) = (get("net.msgs_to"), get("net.bytes_to"));
                row.push(if msgs == 0 {
                    "-".to_string()
                } else {
                    format!("{msgs}/{:.1}K", bytes as f64 / 1024.0)
                });
            }
            row
        })
        .collect();
    println!(
        "\n{} {} traffic matrix (msgs/KiB):",
        c.lang.label(),
        c.label
    );
    print!("{}", render_table(&headers_ref, &rows));
}

fn main() {
    let (rest, json_path) = take_json_flag(std::env::args().skip(1));
    let (rest, jobs) = take_jobs_flag(rest.into_iter());
    let (rest, scale) = Scale::take(rest);
    reject_unknown_args(&rest, USAGE);
    eprintln!("profiling messages across the applications ({scale:?} scale)...");

    let mut headers: Vec<String> = [
        "run", "msgs", "short", "bulk", "KiB", "creates", "switches", "syncs",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for i in 0..6 {
        headers.push(match size_bucket_limit(i) {
            Some(l) if l < 1024 => format!("≤{l}B"),
            Some(l) => format!("≤{}K", l / 1024),
            None => "more".to_string(),
        });
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();

    let cells = run_profile_suite(scale, CostModel::default().with_metrics(), jobs);
    let rows: Vec<Vec<String>> = cells.iter().map(hist_cells).collect();

    println!("Message and thread-operation profile per application run");
    println!("{}", render_table(&headers_ref, &rows));
    println!("Columns ≤64B.. are the sent-message wire-size histogram.");
    for c in &cells {
        print_traffic(c);
    }

    if let Some(path) = &json_path {
        write_json(path, &MsgProfile { cells }.to_json());
    }
}
