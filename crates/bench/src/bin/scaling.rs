//! Transfer-size scaling: the paper notes that em3d-bulk moves only "about
//! 5 bytes [per edge]" and that "to really observe a significant hit [from
//! CC++'s extra copying], the problem size has to be increased by a factor
//! of about 200". This binary sweeps the per-peer transfer size of a bulk
//! exchange and reports where the MPMD copying penalty becomes significant,
//! locating that crossover.
//!
//! Usage: `cargo run --release -p mpmd-bench --bin scaling [-j N] [--json <path>]`

use mpmd_bench::fmt::{reject_unknown_args, render_table, take_json_flag, write_json};
use mpmd_bench::runner::{run_jobs, take_jobs_flag, Unit};

const USAGE: &str = "scaling [-j N] [--json <path>]";
use mpmd_apps::common::run_collect;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CcxxConfig, CxPtr};
use mpmd_sim::{to_us, CostModel, Fabric};
use mpmd_splitc as sc;
use mpmd_splitc::GlobalPtr;

const PROCS: usize = 4;

fn splitc_exchange(len: usize) -> f64 {
    run_collect(PROCS, CostModel::default(), move |ctx| {
        sc::init(ctx);
        let region = sc::alloc_region(ctx, len * PROCS, 0.0);
        sc::barrier(ctx);
        let t0 = ctx.now();
        // The application context: an EM3D-phase worth of computation
        // accompanies each exchange (4000 edge traversals x ~0.3 µs).
        ctx.charge(mpmd_sim::Bucket::Cpu, 1_200_000);
        let vals = vec![1.5f64; len];
        for q in 0..PROCS {
            if q != ctx.node() {
                sc::bulk_store(
                    ctx,
                    GlobalPtr {
                        node: q,
                        region,
                        offset: len * ctx.node(),
                    },
                    &vals,
                );
            }
        }
        sc::all_store_sync(ctx);
        let elapsed = (ctx.node() == 0).then(|| to_us(ctx.now() - t0));
        sc::barrier(ctx);
        elapsed
    })
}

fn ccxx_exchange(len: usize) -> f64 {
    run_collect(PROCS, CostModel::default(), move |ctx| {
        cx::init(ctx, CcxxConfig::tham());
        let region = cx::alloc_region(ctx, len * PROCS, 0.0);
        cx::barrier(ctx);
        exchange_once(ctx, region, len); // warm caches and buffers
        let t0 = ctx.now();
        ctx.charge(mpmd_sim::Bucket::Cpu, 1_200_000);
        exchange_once(ctx, region, len);
        cx::barrier(ctx);
        let elapsed = (ctx.node() == 0).then(|| to_us(ctx.now() - t0));
        cx::finalize(ctx);
        elapsed
    })
}

fn exchange_once(ctx: &mpmd_sim::Ctx, region: u32, len: usize) {
    let mut bodies: Vec<Box<dyn FnOnce(mpmd_sim::Ctx) + Send>> = Vec::new();
    for q in 0..PROCS {
        if q != ctx.node() {
            let vals = vec![1.5f64; len];
            let dst = CxPtr {
                node: q,
                region,
                offset: len * ctx.node(),
            };
            bodies.push(Box::new(move |cctx| {
                // Flat arrays, like em3d-bulk: the penalty measured here is
                // copying, not per-element serialization.
                cx::bulk_put_flat(&cctx, dst, &vals);
            }));
        }
    }
    cx::par(ctx, bodies);
    cx::barrier(ctx);
}

fn main() {
    let (rest, json_path) = take_json_flag(std::env::args().skip(1));
    let (rest, jobs) = take_jobs_flag(rest.into_iter());
    reject_unknown_args(&rest, USAGE);
    println!("Bulk-exchange gap vs per-peer transfer size ({PROCS} nodes, flat arrays,\nwith an EM3D phase of computation per exchange)");
    println!();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut crossover: Option<usize> = None;
    // EM3D at the paper's scale moves ~100 doubles per peer per phase.
    let base_doubles = 100usize;
    let mults = [1usize, 4, 16, 64, 200, 800];
    // Each (size, language) exchange is one independent simulation.
    let mut units: Vec<Unit<f64>> = Vec::new();
    for &mult in &mults {
        let len = base_doubles * mult;
        units.push(Box::new(move || splitc_exchange(len)));
        units.push(Box::new(move || ccxx_exchange(len)));
    }
    let mut measured = run_jobs(units, jobs).into_iter();
    for mult in mults {
        let len = base_doubles * mult;
        let scv = measured.next().expect("missing split-c run");
        let ccv = measured.next().expect("missing cc++ run");
        let ratio = ccv / scv;
        if crossover.is_none() && ratio >= 2.0 {
            crossover = Some(mult);
        }
        {
            use serde::Serialize as _;
            let mut o = serde_json::Map::new();
            o.insert("scale".to_string(), mult.to_value());
            o.insert("bytes_per_peer".to_string(), (len * 8).to_value());
            o.insert("splitc_us".to_string(), scv.to_value());
            o.insert("ccxx_us".to_string(), ccv.to_value());
            o.insert("gap".to_string(), ratio.to_value());
            json_rows.push(serde_json::Value::Object(o));
        }
        rows.push(vec![
            format!("{mult}x"),
            format!("{}", len * 8),
            format!("{scv:.0}"),
            format!("{ccv:.0}"),
            format!("{ratio:.2}"),
        ]);
    }

    if let Some(path) = &json_path {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("table".to_string(), "scaling".to_value());
        m.insert("rows".to_string(), serde_json::Value::Array(json_rows));
        m.insert(
            "crossover_scale".to_string(),
            match crossover {
                Some(c) => c.to_value(),
                None => serde_json::Value::Null,
            },
        );
        write_json(path, &serde_json::Value::Object(m));
    }
    println!(
        "{}",
        render_table(
            &[
                "problem scale",
                "bytes/peer",
                "split-c µs",
                "cc++ µs",
                "gap"
            ],
            &rows
        )
    );
    match crossover {
        Some(m) => println!(
            "With an EM3D phase's computation accompanying each exchange, the\n\
             copying penalty exceeds 2x at ~{m}x the per-edge data volume. The\n\
             paper estimated 'a factor of about 200'; the crossover point is\n\
             set by the compute-to-byte ratio, which is lower here than in\n\
             the paper's (more compute-dominated) bulk configuration."
        ),
        None => println!("No 2x crossover in the swept range."),
    }
}
