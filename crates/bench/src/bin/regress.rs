//! Perf-regression gate over the observability suite.
//!
//! Runs the paper-scale application suite (`--quick` for the CI smoke
//! scale) with the metrics registry on, plus a dedicated null-RMI
//! round-trip measurement, writes the full report — latency histograms,
//! virtual-time breakdowns, and wall-clock — to
//! `results/BENCH_observability.json`, and diffs it against the committed
//! baseline in `crates/bench/testdata/` with per-metric tolerances
//! (see [`mpmd_bench::regress`]). Exits nonzero when any metric moved
//! beyond its tolerance, or `2` when the baseline is missing or carries an
//! incomparable `schema_version`.
//!
//! Wall-clock performance is not gated here: `benchmark/` (same-host
//! parent-vs-change, timed from outside) is the one perf harness. The exact
//! virtual null-RMI round trip is pinned by the `null_rmi` leaves of the
//! committed baseline.
//!
//! Usage: `cargo run --release --bin regress -- [--quick] [-j N]
//! [--update-baseline] [--json <path>]`

use mpmd_bench::experiments::{run_profile_suite, Cell, Scale};
use mpmd_bench::fmt::{
    bucket_object, reject_unknown_args, render_table, take_json_flag, take_switch, write_json,
    SCHEMA_VERSION,
};
use mpmd_bench::regress::compare;
use mpmd_bench::runner::take_jobs_flag;
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::Fabric;
use mpmd_sim::{to_us, CostModel, Histogram, Sim};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "regress [--quick] [-j N] [--update-baseline] [--json <path>]";

/// Round-trip latency distribution of null (0-word) Simple RMIs, straight
/// from the registry's `ccxx.rmi_rtt_ns` histogram.
fn null_rmi(iters: usize) -> Histogram {
    let report = Sim::new(2).metrics(true).run(move |ctx| {
        cx::init(&ctx, CcxxConfig::tham());
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            for _ in 0..iters {
                cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
            }
        }
        cx::finalize(&ctx);
    });
    report
        .metrics
        .expect("metrics were enabled")
        .hist("ccxx.rmi_rtt_ns")
        .expect("null RMIs record ccxx.rmi_rtt_ns")
}

/// One experiment cell as a report entry: virtual-time breakdown, raw
/// counters, and the run's global latency/occupancy histograms.
fn cell_value(c: &Cell) -> serde_json::Value {
    let m = c
        .breakdown
        .metrics
        .as_ref()
        .expect("profile suite runs with metrics on");
    let g = m.global();
    let comps = c.breakdown.components();
    let mut v = serde_json::Map::new();
    v.insert("elapsed_ns".into(), c.breakdown.elapsed.to_value());
    v.insert(
        "components_ns".into(),
        bucket_object(|bk| comps[bk.index()].to_value()),
    );
    v.insert("counts".into(), c.breakdown.counts.to_value());
    v.insert("units".into(), c.units.to_value());
    let mut counters = serde_json::Map::new();
    for (name, val) in &g.counters {
        counters.insert(name.to_string(), val.to_value());
    }
    v.insert("counters".into(), serde_json::Value::Object(counters));
    let mut hists = serde_json::Map::new();
    for (name, h) in &g.hists {
        hists.insert(name.to_string(), h.to_value());
    }
    v.insert("hists".into(), serde_json::Value::Object(hists));
    serde_json::Value::Object(v)
}

fn build_report(
    scale: Scale,
    iters: usize,
    rmi: &Histogram,
    rmi_wall: f64,
    cells: &[Cell],
    suite_wall: f64,
    total_wall: f64,
) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("table".into(), "regress".to_value());
    m.insert("schema_version".into(), SCHEMA_VERSION.to_value());
    m.insert(
        "scale".into(),
        if scale == Scale::Quick {
            "quick"
        } else {
            "paper"
        }
        .to_value(),
    );
    m.insert("wall_clock_secs".into(), total_wall.to_value());
    let mut rm = serde_json::Map::new();
    rm.insert("iters".into(), (iters as u64).to_value());
    rm.insert("wall_secs".into(), rmi_wall.to_value());
    rm.insert("rtt_ns".into(), rmi.to_value());
    m.insert("null_rmi".into(), serde_json::Value::Object(rm));
    m.insert("suite_wall_secs".into(), suite_wall.to_value());
    let mut exps = serde_json::Map::new();
    for c in cells {
        exps.insert(format!("{} {}", c.lang.label(), c.label), cell_value(c));
    }
    m.insert("experiments".into(), serde_json::Value::Object(exps));
    serde_json::Value::Object(m)
}

fn baseline_path(scale: Scale) -> PathBuf {
    let tag = if scale == Scale::Quick {
        "quick"
    } else {
        "paper"
    };
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("testdata/regress_baseline_{tag}.json"))
}

fn print_summary(iters: usize, rmi: &Histogram, cells: &[Cell]) {
    println!(
        "null RMI round trip over {iters} iters (µs): p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
        to_us(rmi.p50()),
        to_us(rmi.p90()),
        to_us(rmi.p99()),
        to_us(rmi.max),
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let g = c.breakdown.metrics.as_ref().unwrap().global();
            vec![
                format!("{} {}", c.lang.label(), c.label),
                format!("{:.2}", to_us(c.breakdown.elapsed) / 1_000.0),
                c.breakdown.counts.msgs_sent.to_string(),
                g.hists.len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["run", "elapsed ms", "msgs", "hists"], &rows)
    );
}

fn main() {
    let (rest, json_out) = take_json_flag(std::env::args().skip(1));
    let (rest, jobs) = take_jobs_flag(rest.into_iter());
    let (rest, scale) = Scale::take(rest);
    let (rest, update) = take_switch(rest, "--update-baseline");
    reject_unknown_args(&rest, USAGE);
    let update = update || std::env::var_os("UPDATE_GOLDEN").is_some();

    eprintln!("regress: measuring the {scale:?}-scale observability suite...");
    let wall_all = Instant::now();
    let iters = if scale == Scale::Quick { 200 } else { 1_000 };
    let t = Instant::now();
    let rmi = null_rmi(iters);
    let rmi_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cells = run_profile_suite(scale, CostModel::default().with_metrics(), jobs);
    let suite_wall = t.elapsed().as_secs_f64();
    let report = build_report(
        scale,
        iters,
        &rmi,
        rmi_wall,
        &cells,
        suite_wall,
        wall_all.elapsed().as_secs_f64(),
    );
    print_summary(iters, &rmi, &cells);
    // Self-check: an empty suite or histogram would compare clean against
    // nothing.
    assert!(rmi.p50() > 0, "empty null-RMI histogram");
    assert!(!cells.is_empty(), "no experiment cells");

    let out = json_out.unwrap_or_else(|| PathBuf::from("results/BENCH_observability.json"));
    write_json(&out, &report);

    let baseline = baseline_path(scale);
    if update {
        write_json(&baseline, &report);
        eprintln!("baseline updated: {}", baseline.display());
        return;
    }
    let text = match std::fs::read_to_string(&baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: no committed baseline at {} ({e}); run with --update-baseline to create it",
                baseline.display()
            );
            std::process::exit(2);
        }
    };
    let base: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: unreadable baseline {}: {e:?}", baseline.display());
        std::process::exit(2);
    });
    match compare(&report, &base) {
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Ok(regs) if !regs.is_empty() => {
            eprintln!("regressions against {}:", baseline.display());
            for r in &regs {
                eprintln!("  {}", r.describe());
            }
            eprintln!("{} metric(s) out of tolerance", regs.len());
            std::process::exit(1);
        }
        Ok(_) => {
            println!(
                "regress: all gated metrics within tolerance of {}",
                baseline.display()
            );
        }
    }
}
