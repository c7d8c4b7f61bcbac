//! Split-C application results must not depend on the wire's behavior:
//! a run under an aggressive fault model (drops, duplicates, reordering)
//! must produce *bitwise identical* floating-point results to the fault-free
//! run. This exercises the canonical commit order of `H_ATOMIC_ADD3` staging
//! and the per-source reduction fold.

use mpmd_sim::{CostModel, Fabric, FaultModel, Sim};
use mpmd_splitc as sc;
use std::sync::Arc;

const NODES: usize = 4;

/// Every node accumulates order-sensitive deltas into node 0's slots via the
/// three-component atomic, then everyone reduce-sums an order-sensitive
/// float. Returns the raw bits of node 0's slots and the reduction result.
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
        // Deltas with no short shared binary representation, so that the
        // commit order visibly changes the rounding if it is not canonical.
        for i in 0..5u32 {
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

#[test]
fn reduce_is_canonical_regardless_of_arrival_order() {
    // Two different fault seeds perturb arrival interleavings differently;
    // the folded sum must still match bit for bit.
    let a = run_accumulate(Some(FaultModel::uniform(3, 0.15, 0.1, 0.2)));
    let b = run_accumulate(Some(FaultModel::uniform(1234, 0.15, 0.1, 0.2)));
    assert_eq!(a, b);
}
