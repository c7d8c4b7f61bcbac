//! Property-based tests over the whole stack (proptest). Case counts are
//! kept modest because every case runs a full simulation.

use mpmd_repro::apps::em3d::{self, Em3dParams, Em3dVersion};
use mpmd_repro::apps::lu::{self, LuParams};
use mpmd_repro::ccxx::{self, CallMode, CcxxConfig, Marshal, MarshalBuf, UnmarshalBuf};
use mpmd_repro::sim::{Bucket, CostModel, Fabric, Sim};
use mpmd_repro::splitc;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mixed argument sequence marshals and unmarshals identically
    /// through a real RMI.
    #[test]
    fn marshalled_rmi_round_trips(
        ints in proptest::collection::vec(any::<u32>(), 0..6),
        doubles in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..16),
        flag in any::<bool>(),
    ) {
        let ints2 = ints.clone();
        let doubles2 = doubles.clone();
        type Payload = (Vec<u32>, Vec<f64>, bool);
        let seen: Arc<Mutex<Option<Payload>>> = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        Sim::new(2).run(move |ctx| {
            ccxx::init(&ctx, CcxxConfig::tham());
            let n_ints = ints2.len();
            let s3 = Arc::clone(&seen2);
            ccxx::register_method(&ctx, "mixed", move |ctx, args| {
                let data = args.data.expect("args expected");
                let mut u = UnmarshalBuf::new(&data);
                let mut got_ints = Vec::new();
                for _ in 0..n_ints {
                    got_ints.push(u.next::<u32, _>(ctx));
                }
                let got_doubles = u.next::<Vec<f64>, _>(ctx);
                let got_flag = u.next::<bool, _>(ctx);
                assert_eq!(u.remaining(), 0);
                *s3.lock() = Some((got_ints, got_doubles, got_flag));
                ccxx::RmiRet::null()
            });
            ccxx::barrier(&ctx);
            if ctx.node() == 0 {
                let mut b = MarshalBuf::new();
                for v in &ints2 {
                    b.push(&ctx, v);
                }
                b.push(&ctx, &doubles2);
                b.push(&ctx, &flag);
                ccxx::rmi(&ctx, 1, "mixed", &[], Some(b), CallMode::Threaded);
            }
            ccxx::finalize(&ctx);
        });
        let got = seen.lock().take().expect("method ran");
        prop_assert_eq!(got.0, ints);
        prop_assert_eq!(got.1, doubles);
        prop_assert_eq!(got.2, flag);
    }

    /// All EM3D versions, in both languages, compute exactly the sequential
    /// reference for random graphs.
    #[test]
    fn em3d_versions_agree_on_random_graphs(
        seed in any::<u64>(),
        degree in 2usize..6,
        frac in 0.0f64..=1.0,
        steps in 1usize..3,
    ) {
        let p = Em3dParams {
            graph_nodes: 80,
            degree,
            procs: 4,
            steps,
            remote_frac: frac,
            seed,
        };
        let want = em3d::em3d_reference(&p);
        let sc = em3d::run_splitc(&p, Em3dVersion::Ghost);
        prop_assert_eq!(&sc.output.e, &want.e);
        let cc = em3d::run_ccxx(&p, Em3dVersion::Bulk, CcxxConfig::tham(), CostModel::default());
        prop_assert_eq!(&cc.output.e, &want.e);
    }

    /// Distributed LU equals the blocked reference bitwise and reconstructs
    /// the original matrix, for random seeds and shapes.
    #[test]
    fn lu_factors_random_matrices(
        seed in any::<u64>(),
        shape in prop::sample::select(vec![(16usize, 4usize), (24, 4), (32, 8)]),
    ) {
        let p = LuParams { n: shape.0, block: shape.1, procs: 4, seed };
        let want = lu::lu_blocked_reference(&p);
        let run = lu::run_splitc(&p);
        prop_assert_eq!(&run.output.factored, &want);
        let original = lu::generate_matrix(&p);
        let err = lu::reconstruction_error(&original, &run.output.factored, p.n);
        prop_assert!(err < 1e-8, "reconstruction error {}", err);
    }

    /// The simulator is a deterministic function of the program: random
    /// charge/message workloads produce identical reports twice.
    #[test]
    fn simulator_is_deterministic(
        charges in proptest::collection::vec(1u64..10_000, 1..20),
        fanout in 1usize..4,
    ) {
        let run = |charges: Vec<u64>, fanout: usize| {
            Sim::new(4).run(move |ctx| {
                splitc::init(&ctx);
                let a = splitc::all_spread_alloc(&ctx, 8, 0.0);
                splitc::barrier(&ctx);
                for (i, c) in charges.iter().enumerate() {
                    ctx.charge(Bucket::Cpu, *c);
                    if i % 2 == 0 {
                        for f in 1..=fanout {
                            let t = (ctx.node() + f) % ctx.nodes();
                            splitc::put(&ctx, a.node_chunk(t).add(i % 8), *c as f64);
                        }
                        splitc::sync(&ctx);
                    }
                }
                splitc::barrier(&ctx);
            })
        };
        let a = run(charges.clone(), fanout);
        let b = run(charges, fanout);
        prop_assert_eq!(a.clocks, b.clocks);
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Split-phase puts to distinct locations all land, regardless of issue
    /// order (linearization per location).
    #[test]
    fn split_phase_puts_all_land(
        values in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 1..12),
    ) {
        let values2 = values.clone();
        let got: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        Sim::new(2).run(move |ctx| {
            splitc::init(&ctx);
            let a = splitc::all_spread_alloc(&ctx, values2.len(), 0.0);
            splitc::barrier(&ctx);
            if ctx.node() == 0 {
                for (i, v) in values2.iter().enumerate() {
                    splitc::put(&ctx, a.node_chunk(1).add(i), *v);
                }
                splitc::sync(&ctx);
            }
            splitc::barrier(&ctx);
            if ctx.node() == 1 {
                *g2.lock() = splitc::with_local(&ctx, a.region, |v| v.clone());
            }
            splitc::barrier(&ctx);
        });
        let final_vals = got.lock().clone();
        prop_assert_eq!(final_vals, values);
    }

    /// FlatF64s and Vec<f64> marshal to interchangeable wire bytes.
    #[test]
    fn flat_and_elementwise_marshal_agree(
        vals in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..50),
    ) {
        let mut a = Vec::new();
        vals.write(&mut a);
        let mut b = Vec::new();
        ccxx::FlatF64s(vals.clone()).write(&mut b);
        prop_assert_eq!(a, b.clone());
        let mut inp = b.as_slice();
        let back = ccxx::FlatF64s::read(&mut inp);
        prop_assert_eq!(back.0, vals);
    }
}
