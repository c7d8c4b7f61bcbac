//! Real-hardware mode: the paper's microbenchmarks on the wall-clock
//! [`LocalFabric`] backend instead of the simulator.
//!
//! Runs three workloads on one OS thread per node over the per-link rings:
//!
//! * **null-RMI** — CC++ Simple round trips between two nodes; the
//!   `ccxx.rmi_rtt_ns` histogram holds *measured* nanoseconds.
//! * **barrier ring** — repeated AM barriers across four nodes, with the
//!   per-round wall latency recorded into `local.barrier_ns`.
//! * **EM3D ghost** — the Split-C ghost-exchange application; node 0's
//!   final field values are compared bit-for-bit against a simulator run
//!   of the same parameters (same code, different fabric).
//!
//! The binary asserts completion and nonzero wall-clock histograms (it is
//! the CI smoke for the backend) and prints measured-vs-simulated null-RMI
//! round trips. Wall-clock performance is compared by `benchmark/`, not here.
//! Usage: `local [--rmi-iters N] [--barriers N] [--json <path>]`

use mpmd_apps::em3d::{run_splitc_cost, run_splitc_on, Em3dParams, Em3dValues, Em3dVersion};
use mpmd_apps::AppRun;
use mpmd_bench::fmt::{reject_unknown_args, take_json_flag, write_json, SCHEMA_VERSION};
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{to_us, CostModel, Histogram, Sim};
use parking_lot::Mutex;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "local [--rmi-iters N] [--barriers N] [--json <path>]";

/// Null-RMI round trips on `F`; returns the run's `ccxx.rmi_rtt_ns`
/// histogram — virtual nanoseconds under the simulator, measured wall
/// nanoseconds under [`LocalFabric`]. The body is shared verbatim between
/// the two backends; only the driver differs.
fn null_rmi_body<F: Fabric>(ctx: &F, iters: usize) {
    cx::init(ctx, CcxxConfig::tham());
    cx::barrier(ctx);
    if ctx.node() == 0 {
        for _ in 0..iters {
            cx::rmi(ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
        }
    }
    cx::finalize(ctx);
}

fn null_rmi_local(iters: usize) -> Histogram {
    let report = LocalFabric::run(2, move |ctx| null_rmi_body(&ctx, iters));
    report
        .metrics
        .expect("LocalFabric runs with metrics on")
        .hist("ccxx.rmi_rtt_ns")
        .expect("null RMIs record ccxx.rmi_rtt_ns")
}

fn null_rmi_sim(iters: usize) -> Histogram {
    let report = Sim::new(2)
        .metrics(true)
        .run(move |ctx| null_rmi_body(&ctx, iters));
    report
        .metrics
        .expect("metrics were enabled")
        .hist("ccxx.rmi_rtt_ns")
        .expect("null RMIs record ccxx.rmi_rtt_ns")
}

/// Barrier ring on four OS threads: per-round wall latency of the
/// centralized AM barrier, from node 0's clock.
fn barrier_ring(rounds: usize) -> Histogram {
    let report = LocalFabric::run(4, move |ctx| {
        mpmd_am::init(&ctx, mpmd_am::NetProfile::sp_am_splitc());
        mpmd_am::register_barrier_handlers(&ctx);
        mpmd_am::barrier(&ctx);
        for _ in 0..rounds {
            let t0 = ctx.metric_now();
            mpmd_am::barrier(&ctx);
            if ctx.node() == 0 {
                if let Some(t0) = t0 {
                    ctx.metric_observe_since("local.barrier_ns", t0);
                }
            }
        }
    });
    report
        .metrics
        .expect("LocalFabric runs with metrics on")
        .hist("local.barrier_ns")
        .expect("barrier rounds record local.barrier_ns")
}

/// EM3D ghost on the wall-clock backend; node 0's result plus wall time.
fn em3d_local(p: &Em3dParams) -> (AppRun<Em3dValues>, f64) {
    let slot: Arc<Mutex<Option<AppRun<Em3dValues>>>> = Arc::new(Mutex::new(None));
    let s2 = Arc::clone(&slot);
    let p = p.clone();
    let t = Instant::now();
    LocalFabric::run(p.procs, move |ctx| {
        if let Some(run) = run_splitc_on(&ctx, &p, Em3dVersion::Ghost, None) {
            *s2.lock() = Some(run);
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let run = slot.lock().take().expect("node 0 produced the em3d result");
    (run, wall)
}

fn hist_value(h: &Histogram) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("count".into(), h.count.to_value());
    m.insert("p50_ns".into(), h.p50().to_value());
    m.insert("p99_ns".into(), h.p99().to_value());
    m.insert("max_ns".into(), h.max.to_value());
    serde_json::Value::Object(m)
}

fn main() {
    let (rest, json_out) = take_json_flag(std::env::args().skip(1));
    let (rest, rmi_iters) = take_flag_count(rest, "--rmi-iters", 2_000);
    let (rest, barriers) = take_flag_count(rest, "--barriers", 500);
    reject_unknown_args(&rest, USAGE);

    eprintln!("local: null-RMI on {rmi_iters} wall-clock round trips...");
    let t = Instant::now();
    let rtt = null_rmi_local(rmi_iters);
    let rmi_wall = t.elapsed().as_secs_f64();
    assert_eq!(
        rtt.count, rmi_iters as u64,
        "lost null-RMI round trips on the wall-clock backend"
    );
    assert!(rtt.sum > 0, "wall-clock RTT histogram is empty");
    let sim_rtt = null_rmi_sim(rmi_iters.min(200));

    eprintln!("local: barrier ring, {barriers} rounds on 4 threads...");
    let bar = barrier_ring(barriers);
    assert_eq!(bar.count, barriers as u64, "lost barrier rounds");
    assert!(bar.sum > 0, "wall-clock barrier histogram is empty");

    eprintln!("local: em3d ghost on 4 threads vs the simulator...");
    let p = Em3dParams {
        graph_nodes: 160,
        degree: 5,
        procs: 4,
        steps: 2,
        remote_frac: 0.4,
        seed: 42,
    };
    let (local_run, em3d_wall) = em3d_local(&p);
    let sim_run = run_splitc_cost(&p, Em3dVersion::Ghost, CostModel::default());
    assert_eq!(
        local_run.output.e, sim_run.output.e,
        "em3d E field diverged between fabrics"
    );
    assert_eq!(
        local_run.output.h, sim_run.output.h,
        "em3d H field diverged between fabrics"
    );

    println!(
        "null RMI:  measured p50 {:.1} µs / p99 {:.1} µs wall  |  simulated p50 {:.1} µs virtual  ({:.0} RMIs/s)",
        to_us(rtt.p50()),
        to_us(rtt.p99()),
        to_us(sim_rtt.p50()),
        rmi_iters as f64 / rmi_wall,
    );
    println!(
        "barrier:   p50 {:.1} µs / p99 {:.1} µs wall over {barriers} rounds on 4 threads",
        to_us(bar.p50()),
        to_us(bar.p99()),
    );
    println!(
        "em3d ghost: {em3d_wall:.3}s wall on 4 threads, fields bit-identical to the simulator"
    );

    let mut m = serde_json::Map::new();
    m.insert("table".into(), "local".to_value());
    m.insert("schema_version".into(), SCHEMA_VERSION.to_value());
    let mut rm = serde_json::Map::new();
    rm.insert("iters".into(), (rmi_iters as u64).to_value());
    rm.insert("wall_secs".into(), rmi_wall.to_value());
    rm.insert("rtt_wall".into(), hist_value(&rtt));
    rm.insert("rtt_sim_p50_ns".into(), sim_rtt.p50().to_value());
    m.insert("null_rmi".into(), serde_json::Value::Object(rm));
    let mut bm = serde_json::Map::new();
    bm.insert("rounds".into(), (barriers as u64).to_value());
    bm.insert("latency_wall".into(), hist_value(&bar));
    m.insert("barrier_ring".into(), serde_json::Value::Object(bm));
    let mut em = serde_json::Map::new();
    em.insert("wall_secs".into(), em3d_wall.to_value());
    em.insert(
        "elapsed_wall_ns".into(),
        local_run.breakdown.elapsed.to_value(),
    );
    em.insert("matches_sim".into(), true.to_value());
    em.insert(
        "msgs_sent".into(),
        local_run.breakdown.counts.msgs_sent.to_value(),
    );
    m.insert("em3d_ghost".into(), serde_json::Value::Object(em));
    let report = serde_json::Value::Object(m);
    if let Some(path) = json_out {
        write_json(&path, &report);
    } else {
        write_json(&PathBuf::from("results/local.json"), &report);
    }
}

/// Parse `--name N` out of the argument list (defaulting when absent).
fn take_flag_count(args: Vec<String>, name: &str, default: usize) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    let mut val = default;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == name {
            let v = it
                .next()
                .unwrap_or_else(|| panic!("{name} needs a value ({USAGE})"));
            val = v
                .parse()
                .unwrap_or_else(|_| panic!("{name} needs an integer ({USAGE})"));
        } else {
            out.push(a);
        }
    }
    (out, val)
}
