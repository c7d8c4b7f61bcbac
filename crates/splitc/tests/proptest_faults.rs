//! Property: *any* fault schedule — arbitrary seed, drop, duplicate, and
//! reorder rates — yields application results bitwise identical to the
//! fault-free run. The reliable-delivery layer plus the canonical commit
//! order make the wire's behavior unobservable to the application.

use mpmd_sim::{CostModel, Fabric, FaultModel, Sim};
use mpmd_splitc as sc;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const NODES: usize = 4;

/// Order-sensitive accumulation + reduction; returns node 0's slot bits and
/// the reduction bits (same scenario as `fault_determinism.rs`, shortened).
fn run_accumulate(faults: Option<FaultModel>) -> (Vec<u64>, u64) {
    let out = Arc::new(parking_lot::Mutex::new((Vec::new(), 0u64)));
    let o2 = Arc::clone(&out);
    let mut sim = Sim::new(NODES);
    if let Some(f) = faults {
        sim = sim.cost_model(CostModel::default().with_faults(f));
    }
    sim.run(move |ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, 3, 0.0);
        sc::barrier(&ctx);
        let me = ctx.node();
        for i in 0..3u32 {
            let d = 0.1 * (me as f64 + 1.0) + 1e-13 * f64::from(i);
            sc::atomic_add3(&ctx, a.node_chunk(0), [d, d / 3.0, d / 7.0]);
        }
        sc::barrier(&ctx);
        let red = sc::reduce_sum_f64(&ctx, 0.1 + 0.2 * me as f64);
        if me == 0 {
            let bits = sc::with_local(&ctx, a.region, |v| {
                v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            });
            *o2.lock() = (bits, red.to_bits());
        }
        sc::barrier(&ctx);
    });
    let r = out.lock().clone();
    r
}

fn fault_free() -> &'static (Vec<u64>, u64) {
    static CLEAN: OnceLock<(Vec<u64>, u64)> = OnceLock::new();
    CLEAN.get_or_init(|| run_accumulate(None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_fault_schedule_reproduces_fault_free_results(
        seed in any::<u64>(),
        drop in 0.0f64..0.25,
        duplicate in 0.0f64..0.15,
        reorder in 0.0f64..0.25,
    ) {
        let faulty = run_accumulate(Some(FaultModel::uniform(seed, drop, duplicate, reorder)));
        prop_assert_eq!(&faulty, fault_free());
    }
}
