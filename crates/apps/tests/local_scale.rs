//! The two size limits the thread-per-task `LocalFabric` had (benchmark
//! README, "Size guards") no longer hold: tens of thousands of threaded RMIs
//! fit in one run, and EM3D `base` in CC++ — one threaded access per remote
//! edge — runs at the paper's graph size. EM3D `ghost` in Split-C on four
//! nodes gives the sequential reference's fields bit for bit, and a traced
//! run of it on two nodes yields the simulator's spans and flamegraph.
//!
//! The runtimes' node-local state (regions and staged adds, Split-C's atomic
//! table, CC++'s call records, stub tables and atomic-method lock, `prefetch`
//! buffers) lives in lock-free node cells: Water, LU, EM3D `ghost` in CC++
//! and Split-C's remote atomics run here with the nodes truly parallel,
//! against their sequential references. A `with_local` closure that reaches
//! its node's regions again panics, on both fabrics.
//!
//! Debug builds (tier 1) run a reduced size; the release-mode line in
//! `ci.sh` runs the full one.

use mpmd_apps::em3d::{
    em3d_reference, run_ccxx_on, run_splitc_on, run_splitc_traced, Em3dParams, Em3dValues,
    Em3dVersion,
};
use mpmd_apps::lu::{self, LuParams};
use mpmd_apps::water::{self, WaterParams, WaterVersion};
use mpmd_apps::AppRun;
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig, CxPtr};
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{fold_stacks, Report, Sim, TraceConfig, TraceLog, REENTERED};
use mpmd_splitc as sc;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const FULL: bool = !cfg!(debug_assertions);

#[test]
fn threaded_null_rmis_by_the_ten_thousand_complete_in_one_run() {
    let calls: u64 = if FULL { 20_000 } else { 2_000 };
    let report = LocalFabric::run(2, move |ctx| {
        cx::init(&ctx, CcxxConfig::tham());
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            for _ in 0..calls {
                cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Threaded);
            }
        }
        cx::finalize(&ctx);
    });
    // One method thread per call on the server, beside its poller.
    assert!(report.stats[1].thread_creates >= calls);
}

/// Node 0's output of `app` on one OS thread per node, and the run's
/// report.
fn node0_output<T: Send + 'static>(
    fabric: LocalFabricBuilder,
    app: impl Fn(&LocalFabric) -> Option<AppRun<T>> + Send + Sync + 'static,
) -> (T, Report) {
    let slot = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let report = fabric.run(move |ctx| {
        if let Some(run) = app(&ctx) {
            *slot2.lock().unwrap() = Some(run.output);
        }
    });
    let got = slot.lock().unwrap().take();
    (got.expect("node 0 returns the output"), report)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An EM3D version on one node of a run: node 0 returns the fields.
type App = fn(&LocalFabric, &Em3dParams) -> Option<AppRun<Em3dValues>>;

/// Node 0's fields from `app` on one OS thread per node must equal the
/// sequential reference bit for bit, not approximately. Returns the run's
/// report.
fn assert_matches_reference(fabric: LocalFabricBuilder, p: Em3dParams, app: App) -> Report {
    let want = em3d_reference(&p);
    let (got, report) = node0_output(fabric, move |ctx| app(ctx, &p));
    assert_eq!(bits(&got.e), bits(&want.e), "E field");
    assert_eq!(bits(&got.h), bits(&want.h), "H field");
    report
}

#[test]
fn em3d_base_in_ccxx_runs_at_paper_size() {
    let p = Em3dParams {
        procs: 2,
        steps: if FULL { 10 } else { 2 },
        ..Em3dParams::paper(0.4)
    };
    let fabric = LocalFabricBuilder::new(p.procs);
    assert_matches_reference(fabric, p, |ctx, p| {
        run_ccxx_on(ctx, p, Em3dVersion::Base, CcxxConfig::tham())
    });
}

#[test]
fn em3d_ghost_in_splitc_on_four_nodes_matches_the_reference() {
    let p = Em3dParams {
        graph_nodes: 160,
        degree: 5,
        procs: 4,
        steps: 2,
        remote_frac: 0.4,
        seed: 42,
    };
    let fabric = LocalFabricBuilder::new(p.procs);
    assert_matches_reference(fabric, p, |ctx, p| {
        run_splitc_on(ctx, p, Em3dVersion::Ghost, None)
    });
}

fn span_names(log: &TraceLog) -> BTreeSet<String> {
    log.spans().into_iter().map(|s| s.name).collect()
}

/// A traced wall-clock run goes through the simulator's exporters unchanged:
/// a Chrome trace, and folded stacks rooted at each node's main task, over
/// the same span names the simulator records for the same program.
#[test]
fn em3d_ghost_in_splitc_traces_on_the_wall_clock() {
    let p = Em3dParams {
        graph_nodes: 32,
        degree: 4,
        procs: 2,
        steps: 1,
        remote_frac: 1.0,
        seed: 42,
    };
    let fabric = LocalFabricBuilder::new(p.procs).tracing(TraceConfig::new());
    let report = assert_matches_reference(fabric, p.clone(), |ctx, p| {
        run_splitc_on(ctx, p, Em3dVersion::Ghost, None)
    });
    let log = report.trace.expect("a traced run returns its trace");
    assert_eq!(log.total_dropped(), 0);
    assert!(log.to_chrome_trace().contains(r#""ph":"X""#));
    let folded = fold_stacks(&log);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, _ns) = line.rsplit_once(' ').expect("a stack and its weight");
        let mut frames = stack.split(';');
        let node = frames.next().and_then(|n| n.strip_prefix("node"));
        assert!(node.is_some_and(|n| n.parse::<usize>().is_ok()), "{line}");
        assert_eq!(frames.next(), Some("main"), "{line}");
    }
    let (_, sim) = run_splitc_traced(&p, Em3dVersion::Ghost);
    assert_eq!(span_names(&log), span_names(&sim));
}

/// EM3D `ghost` in CC++ fetches its ghosts with `prefetch`: parfor threads
/// each fill one slot of a node-local result buffer.
#[test]
fn em3d_ghost_in_ccxx_matches_the_reference() {
    let p = Em3dParams {
        graph_nodes: 160,
        degree: 5,
        procs: 2,
        steps: 2,
        remote_frac: 0.4,
        seed: 42,
    };
    let fabric = LocalFabricBuilder::new(p.procs);
    assert_matches_reference(fabric, p, |ctx, p| {
        run_ccxx_on(ctx, p, Em3dVersion::Ghost, CcxxConfig::tham())
    });
}

/// Water in both languages and both versions on two OS-thread nodes: each
/// position and the energy within 1e-9 of the sequential reference
/// (relative to the larger magnitude, or absolute below 1), the rule
/// `tests/apps_correctness.rs` holds the simulator's runs to.
#[test]
fn water_in_both_languages_matches_the_reference() {
    let p = WaterParams {
        n_mol: if FULL { 64 } else { 16 },
        procs: 2,
        steps: 2,
        seed: 9,
        box_size: 8.0,
    };
    let (want, energy) = water::water_reference(&p);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for version in WaterVersion::ALL {
        for ccxx in [false, true] {
            let p2 = p.clone();
            let (got, _) = node0_output(LocalFabricBuilder::new(p.procs), move |ctx| {
                if ccxx {
                    water::run_ccxx_on(ctx, &p2, version, CcxxConfig::tham())
                } else {
                    water::run_splitc_on(ctx, &p2, version, None)
                }
            });
            let what = format!(
                "{} in {}",
                version.label(),
                ["Split-C", "CC++"][ccxx as usize]
            );
            for (i, (a, b)) in got.pos.iter().zip(&want.pos).enumerate() {
                assert!(close(*a, *b), "{what}: pos[{i}] {a} vs {b}");
            }
            assert!(close(got.energy, energy), "{what}: energy {}", got.energy);
        }
    }
}

/// Blocked LU in both languages on two OS-thread nodes equals the blocked
/// sequential reference bit for bit.
#[test]
fn lu_in_both_languages_matches_the_reference() {
    let p = LuParams {
        n: if FULL { 96 } else { 32 },
        block: 8,
        procs: 2,
        seed: 13,
    };
    let want = lu::lu_blocked_reference(&p);
    for ccxx in [false, true] {
        let p2 = p.clone();
        let (got, _) = node0_output(LocalFabricBuilder::new(p.procs), move |ctx| {
            if ccxx {
                lu::run_ccxx_on(ctx, &p2, CcxxConfig::tham())
            } else {
                lu::run_splitc_on(ctx, &p2, None)
            }
        });
        assert_eq!(bits(&got.factored), bits(&want), "CC++: {ccxx}");
    }
}

/// Split-C's `atomic_add` from both nodes at once: each runs at the
/// owner, through the function its atomic table holds. Every node adds 1
/// to every node's cell, `ROUNDS` times.
#[test]
fn splitc_remote_atomics_from_every_node_all_land() {
    const ROUNDS: usize = 200;
    LocalFabric::run(2, |ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, 1, 0.0);
        for _ in 0..ROUNDS {
            for k in 0..ctx.nodes() {
                sc::atomic_add(&ctx, a.node_chunk(k), 1.0);
            }
        }
        sc::barrier(&ctx);
        let want = (ROUNDS * ctx.nodes()) as f64;
        assert_eq!(sc::with_local(&ctx, a.region, |v| v[0]), want);
        sc::barrier(&ctx);
    });
}

/// The payload of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the run passed");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("a message")
            .to_string(),
    }
}

/// A `with_local` closure that reaches its node's regions again: a nested
/// `with_local` in Split-C, a read through a global pointer to this node in
/// CC++.
fn reach_the_regions_again<F: Fabric>(ctx: &F, ccxx: bool) {
    if ccxx {
        cx::init(ctx, CcxxConfig::tham());
        let region = cx::alloc_region(ctx, 1, 0.0);
        let me = CxPtr {
            node: ctx.node(),
            region,
            offset: 0,
        };
        cx::with_local(ctx, region, |_| cx::gp_read(ctx, me));
    } else {
        sc::init(ctx);
        let region = sc::alloc_region(ctx, 1, 0.0);
        sc::with_local(ctx, region, |_| sc::with_local(ctx, region, |_| ()));
    }
}

#[test]
fn a_with_local_closure_that_reaches_the_regions_again_panics() {
    for ccxx in [false, true] {
        let sim = panic_message(|| {
            Sim::new(1).run(move |ctx| reach_the_regions_again(&ctx, ccxx));
        });
        let local = panic_message(|| {
            LocalFabric::run(1, move |ctx| reach_the_regions_again(&ctx, ccxx));
        });
        assert_eq!(sim, REENTERED, "sim, CC++: {ccxx}");
        assert_eq!(local, REENTERED, "local, CC++: {ccxx}");
    }
}
