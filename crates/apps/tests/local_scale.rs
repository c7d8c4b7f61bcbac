//! The two size limits the thread-per-task `LocalFabric` had (benchmark
//! README, "Size guards") no longer hold: tens of thousands of threaded RMIs
//! fit in one run, and EM3D `base` in CC++ — one threaded access per remote
//! edge — runs at the paper's graph size. EM3D `ghost` in Split-C on four
//! nodes gives the sequential reference's fields bit for bit, and a traced
//! run of it on two nodes yields the simulator's spans and flamegraph.
//!
//! Debug builds (tier 1) run a reduced size; the release-mode line in
//! `ci.sh` runs the full one.

use mpmd_apps::em3d::{
    em3d_reference, run_ccxx_on, run_splitc_on, run_splitc_traced, Em3dParams, Em3dValues,
    Em3dVersion,
};
use mpmd_apps::AppRun;
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{fold_stacks, Report, TraceConfig, TraceLog};
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

/// An EM3D version on one node of a run: node 0 returns the fields.
type App = fn(&LocalFabric, &Em3dParams) -> Option<AppRun<Em3dValues>>;

/// Node 0's fields from `app` on one OS thread per node must equal the
/// sequential reference bit for bit, not approximately. Returns the run's
/// report.
fn assert_matches_reference(fabric: LocalFabricBuilder, p: Em3dParams, app: App) -> Report {
    let want = em3d_reference(&p);
    let slot = Arc::new(Mutex::new(None));
    let (slot2, p2) = (Arc::clone(&slot), p.clone());
    let report = fabric.run(move |ctx| {
        if let Some(run) = app(&ctx, &p2) {
            *slot2.lock().unwrap() = Some(run);
        }
    });
    let got = slot
        .lock()
        .unwrap()
        .take()
        .expect("node 0 returns the fields")
        .output;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
