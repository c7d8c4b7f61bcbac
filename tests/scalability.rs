//! Beyond the paper's 4-processor runs: the runtimes and applications must
//! work unchanged on other machine sizes (the paper's SP had many more
//! nodes; 4 was the evaluation slice).

use mpmd_repro::apps::em3d::{self, Em3dParams, Em3dVersion};
use mpmd_repro::apps::lu::{self, LuParams};
use mpmd_repro::apps::water::{self, WaterParams, WaterVersion};
use mpmd_repro::ccxx::{self, CallMode, CcxxConfig};
use mpmd_repro::sim::{CostModel, Fabric, Sim};
use mpmd_repro::splitc;

#[test]
fn em3d_runs_on_two_and_eight_processors() {
    for procs in [2usize, 8] {
        let p = Em3dParams {
            graph_nodes: 160,
            degree: 4,
            procs,
            steps: 2,
            remote_frac: 0.6,
            seed: 15,
        };
        let want = em3d::em3d_reference(&p);
        for v in Em3dVersion::ALL {
            let sc = em3d::run_splitc(&p, v);
            assert_eq!(
                sc.output.e,
                want.e,
                "split-c {} on {procs} procs",
                v.label()
            );
            let cc = em3d::run_ccxx(&p, v, CcxxConfig::tham(), CostModel::default());
            assert_eq!(cc.output.e, want.e, "cc++ {} on {procs} procs", v.label());
        }
    }
}

#[test]
fn water_runs_on_eight_processors() {
    let p = WaterParams {
        n_mol: 32,
        procs: 8,
        steps: 1,
        seed: 77,
        box_size: 8.0,
    };
    let (want, energy) = water::water_reference(&p);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for v in WaterVersion::ALL {
        let run = water::run_splitc(&p, v);
        assert!(close(run.output.energy, energy), "{}", v.label());
        assert!(run
            .output
            .pos
            .iter()
            .zip(&want.pos)
            .all(|(a, b)| close(*a, *b)));
    }
}

#[test]
fn lu_runs_on_eight_processors() {
    let p = LuParams {
        n: 64,
        block: 8,
        procs: 8,
        seed: 3,
    };
    let want = lu::lu_blocked_reference(&p);
    assert_eq!(lu::run_splitc(&p).output.factored, want);
    assert_eq!(
        lu::run_ccxx(&p, CcxxConfig::tham(), CostModel::default())
            .output
            .factored,
        want
    );
}

#[test]
fn barrier_and_reductions_scale_to_sixteen_nodes() {
    Sim::new(16).run(|ctx| {
        splitc::init(&ctx);
        for _ in 0..3 {
            splitc::barrier(&ctx);
        }
        let sum = splitc::reduce_sum_u64(&ctx, ctx.node() as u64);
        assert_eq!(sum, (0..16).sum::<u64>());
    });
}

#[test]
fn rmi_all_to_all_on_eight_nodes() {
    let r = Sim::new(8).run(|ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let region = ccxx::alloc_region(&ctx, 8, 0.0);
        ccxx::barrier(&ctx);
        // Everyone atomically adds its id+1 into everyone's slot 0.
        for dst in 0..ctx.nodes() {
            if dst != ctx.node() {
                ccxx::atomic_add(
                    &ctx,
                    ccxx::CxPtr {
                        node: dst,
                        region,
                        offset: 0,
                    },
                    (ctx.node() + 1) as f64,
                );
            }
        }
        ccxx::barrier(&ctx);
        let mine = ccxx::with_local(&ctx, region, |v| v[0]);
        let expect: f64 = (1..=8).map(|x| x as f64).sum::<f64>() - (ctx.node() + 1) as f64;
        assert_eq!(mine, expect);
        // And a round of null RMIs to the next node for good measure.
        let next = (ctx.node() + 1) % ctx.nodes();
        for mode in [CallMode::Simple, CallMode::Threaded] {
            ccxx::rmi(&ctx, next, ccxx::M_NULL, &[], None, mode);
        }
        ccxx::finalize(&ctx);
    });
    assert_eq!(r.nodes(), 8);
}
