//! The two size limits the thread-per-task `LocalFabric` had (benchmark
//! README, "Size guards") no longer hold: tens of thousands of threaded RMIs
//! fit in one run, and EM3D `base` in CC++ — one threaded access per remote
//! edge — runs at the paper's graph size.
//!
//! Debug builds (tier 1) run a reduced size; the release-mode line in
//! `ci.sh` runs the full one.

use mpmd_apps::em3d::{em3d_reference, run_ccxx_on, Em3dParams, Em3dVersion};
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric};
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

#[test]
fn em3d_base_in_ccxx_runs_at_paper_size() {
    let p = Em3dParams {
        procs: 2,
        steps: if FULL { 10 } else { 2 },
        ..Em3dParams::paper(0.4)
    };
    let want = em3d_reference(&p);
    let slot = Arc::new(Mutex::new(None));
    let (slot2, p2) = (Arc::clone(&slot), p.clone());
    LocalFabric::run(p.procs, move |ctx| {
        if let Some(run) = run_ccxx_on(&ctx, &p2, Em3dVersion::Base, CcxxConfig::tham()) {
            *slot2.lock().unwrap() = Some(run);
        }
    });
    let got = slot
        .lock()
        .unwrap()
        .take()
        .expect("node 0 returns the fields")
        .output;
    // Bit-identical, not approximately equal: compare the representations.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.e), bits(&want.e), "E field");
    assert_eq!(bits(&got.h), bits(&want.h), "H field");
}
