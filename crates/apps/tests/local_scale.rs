//! `LocalFabric` at scale: tens of thousands of threaded RMIs fit in one
//! run, and EM3D `base` in CC++ — one threaded access per remote edge —
//! runs at the paper's graph size. Every Figure 5/6 cell — EM3D base, ghost
//! and bulk, Water atomic and prefetch, and LU, each in Split-C and in
//! CC++/ThAM — runs on two nodes through `App::run_on` and gives the
//! sequential reference's result and the simulator's. EM3D `ghost` in
//! Split-C on four nodes gives the reference's fields bit for bit, and a
//! traced run of it on two nodes yields the simulator's spans and
//! flamegraph.
//!
//! The runtimes' node-local state (regions and staged adds, Split-C's atomic
//! table, CC++'s call records, stub tables and atomic-method lock, `prefetch`
//! buffers) lives in lock-free node cells: the cells run here with the nodes
//! truly parallel, as do Split-C's remote atomics. A `with_local` closure
//! that reaches its node's regions again panics, on both fabrics.
//!
//! Debug builds (tier 1) run a reduced size; the release-mode line in
//! `ci.sh` runs the full one.

use mpmd_apps::common::run_collect_full;
use mpmd_apps::em3d::{em3d_reference, Em3dParams, Em3dVersion};
use mpmd_apps::lu::{self, LuOutput, LuParams};
use mpmd_apps::water::{self, WaterOutput, WaterParams, WaterVersion};
use mpmd_apps::{App, Output, Runtime};
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig, CxPtr};
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{fold_stacks, CostModel, Report, Sim, TraceConfig, TraceLog, REENTERED};
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

/// Node 0's output of `app` on `rt`, on one OS thread per node, and the
/// run's report.
fn on_local(fabric: LocalFabricBuilder, app: &App, rt: &Runtime) -> (Output, Report) {
    let slot = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let (app, rt) = (app.clone(), rt.clone());
    let report = fabric.run(move |ctx| {
        if let Some(run) = app.run_on(&ctx, &rt) {
            *slot2.lock().unwrap() = Some(run.output);
        }
    });
    let got = slot.lock().unwrap().take();
    (got.expect("node 0 returns the output"), report)
}

/// The sequential reference's result for `app`.
fn reference(app: &App) -> Output {
    match app {
        App::Em3d(p, _) => Output::Em3d(em3d_reference(p)),
        App::Water(p, _) => {
            let (state, energy) = water::water_reference(p);
            Output::Water(WaterOutput {
                pos: state.pos,
                energy,
            })
        }
        App::Lu(p) => Output::Lu(LuOutput {
            factored: lu::lu_blocked_reference(p),
        }),
    }
}

/// `got` equals `want`: bit for bit, not approximately, for EM3D and LU;
/// for Water each position and the energy within 1e-9 (relative to the
/// larger magnitude, or absolute below 1), the rule
/// `tests/apps_correctness.rs` holds the simulator's runs to.
fn assert_agrees(app: &App, got: &Output, want: &Output, what: &str) {
    let (got, want) = (got.values(), want.values());
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        let ok = match app {
            App::Water(..) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            _ => a.to_bits() == b.to_bits(),
        };
        assert!(ok, "{what}: value {i}: {a} vs {b}");
    }
}

/// Node 0's result of `app` on `rt`, on one OS thread per node, must equal
/// the sequential reference. Returns the run's report.
fn assert_matches_reference(fabric: LocalFabricBuilder, app: &App, rt: &Runtime) -> Report {
    let (got, report) = on_local(fabric, app, rt);
    assert_agrees(app, &got, &reference(app), "wall clock vs reference");
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
    let app = App::Em3d(p, Em3dVersion::Base);
    assert_matches_reference(fabric, &app, &Runtime::tham());
}

/// Every Figure 5/6 cell on two OS-thread nodes, in both languages: the
/// result equals the sequential reference's and the simulator's.
#[test]
fn every_cell_matches_the_reference_and_the_simulator() {
    let em3d = Em3dParams {
        graph_nodes: 160,
        degree: 5,
        procs: 2,
        steps: 2,
        remote_frac: 0.4,
        seed: 42,
    };
    let water = WaterParams {
        n_mol: if FULL { 64 } else { 16 },
        procs: 2,
        steps: 2,
        seed: 9,
        box_size: 8.0,
    };
    let lu = LuParams {
        n: if FULL { 96 } else { 32 },
        block: 8,
        procs: 2,
        seed: 13,
    };
    let apps = Em3dVersion::ALL
        .map(|v| App::Em3d(em3d.clone(), v))
        .into_iter()
        .chain(WaterVersion::ALL.map(|v| App::Water(water.clone(), v)))
        .chain([App::Lu(lu)]);
    for app in apps {
        let want = reference(&app);
        for rt in [Runtime::SPLITC, Runtime::tham()] {
            let what = format!("{} in {}", app.label(rt.lang()), rt.lang().label());
            let sim = app.run(&rt, CostModel::default()).output;
            assert_agrees(
                &app,
                &sim,
                &want,
                &format!("{what}: simulator vs reference"),
            );
            let (local, _) = on_local(LocalFabricBuilder::new(app.procs()), &app, &rt);
            assert_agrees(
                &app,
                &local,
                &want,
                &format!("{what}: wall clock vs reference"),
            );
            assert_agrees(
                &app,
                &local,
                &sim,
                &format!("{what}: wall clock vs simulator"),
            );
        }
    }
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
    let app = App::Em3d(p, Em3dVersion::Ghost);
    assert_matches_reference(fabric, &app, &Runtime::SPLITC);
}

fn span_names(log: &TraceLog) -> BTreeSet<&'static str> {
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
    let app = App::Em3d(p, Em3dVersion::Ghost);
    let report = assert_matches_reference(fabric, &app, &Runtime::SPLITC);
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
    let trace = Some(TraceConfig::new());
    let (_, sim) = run_collect_full(app.procs(), CostModel::default(), trace, move |ctx| {
        app.run_on(ctx, &Runtime::SPLITC)
    });
    let sim = sim.trace.expect("tracing was enabled");
    assert_eq!(span_names(&log), span_names(&sim));
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
