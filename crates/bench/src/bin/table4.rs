//! Regenerate Table 4: micro-benchmark results for CC++/ThAM vs Split-C,
//! with the paper's values alongside.
//!
//! Usage: `cargo run --release -p mpmd-bench --bin table4 [iters] [--json <path>]`

use mpmd_bench::fmt::{
    cnt, reject_unknown_args, render_table, take_count, take_json_flag, us, write_json, JsonReport,
};
use mpmd_bench::micro::{measure_mpl_rtt, run_table4};

const USAGE: &str = "table4 [iters] [--json <path>]";

fn main() {
    let (args, json_path) = take_json_flag(std::env::args().skip(1));
    let (args, iters) = take_count(args, 200, USAGE);
    reject_unknown_args(&args, USAGE);
    eprintln!("running Table 4 micro-benchmarks ({iters} iterations each)...");
    let rows = run_table4(iters);
    // Self-check (this bin is the CI smoke for the --json path): a row that
    // measured nothing would still serialize.
    assert!(!rows.is_empty(), "table4 produced no rows");
    for r in &rows {
        assert!(r.cc.total_us > 0.0, "table4 row {:?} measured 0 µs", r.name);
    }

    let headers = [
        "benchmark",
        "cc Total",
        "(paper)",
        "cc AM",
        "(paper)",
        "cc Thr",
        "(paper)",
        "yield",
        "create",
        "sync",
        "cc Rt",
        "(paper)",
        "sc Total",
        "(paper)",
        "sc AM",
        "sc Rt",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                us(Some(r.cc.total_us)),
                us(Some(r.paper_cc.0)),
                us(Some(r.cc.am_us)),
                us(Some(r.paper_cc.1)),
                us(Some(r.cc.threads_us)),
                us(Some(r.paper_cc.2)),
                cnt(r.cc.yields),
                cnt(r.cc.creates),
                cnt(r.cc.syncs),
                us(Some(r.cc.runtime_us)),
                us(Some(r.paper_cc.3)),
                us(r.sc.as_ref().map(|m| m.total_us)),
                us(r.paper_sc.map(|p| p.0)),
                us(r.sc.as_ref().map(|m| m.am_us)),
                us(r.sc.as_ref().map(|m| m.runtime_us)),
            ]
        })
        .collect();

    println!("Table 4 — micro-benchmark results (all times in µs; per element for Prefetch)");
    println!("{}", render_table(&headers, &table));
    let mpl = measure_mpl_rtt();

    if let Some(path) = &json_path {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("table".to_string(), "table4".to_value());
        m.insert("iters".to_string(), iters.to_value());
        m.insert("mpl_rtt_us".to_string(), mpl.to_value());
        m.insert(
            "rows".to_string(),
            serde_json::Value::Array(rows.iter().map(|r| r.to_json()).collect()),
        );
        write_json(path, &serde_json::Value::Object(m));
    }
    println!("IBM MPL null round trip: {mpl:.0} µs (paper: 88 µs)");
    let simple = &rows[0];
    println!(
        "0-Word Simple is {:.0} µs over the raw AM round trip (paper: 12) and {:.0} µs faster than MPL (paper: 21)",
        simple.cc.total_us - 55.0,
        mpl - simple.cc.total_us,
    );
}
