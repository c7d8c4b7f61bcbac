//! CC++ application results must not depend on the wire's behavior: a run
//! under an aggressive fault model must produce *bitwise identical*
//! floating-point results to the fault-free run. This exercises the
//! canonical commit order of the staged `__addf` / `__add3f` atomic methods.

use mpmd_ccxx as cx;
use mpmd_ccxx::{CcxxConfig, CxPtr};
use mpmd_sim::{CostModel, Fabric, FaultModel, Sim};
use std::sync::Arc;

const NODES: usize = 4;

/// Every node accumulates order-sensitive deltas into node 0's region via
/// atomic-method RMIs (both the one- and three-component forms). Returns the
/// raw bits of node 0's slots.
fn run_accumulate(faults: Option<FaultModel>) -> Vec<u64> {
    let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = Arc::clone(&out);
    let mut cost = CostModel::default();
    if let Some(f) = faults {
        cost = cost.with_faults(f);
    }
    Sim::new(NODES).cost_model(cost).run(move |ctx| {
        cx::init(&ctx, CcxxConfig::tham());
        let region = cx::alloc_region(&ctx, 4, 0.0);
        cx::barrier(&ctx);
        let me = ctx.node();
        let p = CxPtr {
            node: 0,
            region,
            offset: 0,
        };
        if me != 0 {
            for i in 0..4u32 {
                let d = 0.1 * (me as f64 + 1.0) + 1e-13 * f64::from(i);
                cx::atomic_add3(&ctx, p, [d, d / 3.0, d / 7.0]);
                cx::atomic_add(&ctx, p.add(3), d / 11.0);
            }
        }
        cx::barrier(&ctx);
        if me == 0 {
            let bits = cx::with_local(&ctx, region, |v| {
                v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            });
            *o2.lock() = bits;
        }
        cx::finalize(&ctx);
    });
    let r = out.lock().clone();
    r
}

#[test]
fn faulty_wire_gives_bitwise_identical_results() {
    let clean = run_accumulate(None);
    for seed in [1u64, 7, 42] {
        let faulty = run_accumulate(Some(FaultModel::uniform(seed, 0.1, 0.05, 0.1)));
        assert_eq!(
            clean, faulty,
            "seed {seed} diverged from the fault-free run"
        );
    }
}
