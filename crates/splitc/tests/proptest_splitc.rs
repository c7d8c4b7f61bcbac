//! Property tests of the Split-C runtime: global-memory semantics under
//! randomized access patterns.

use mpmd_sim::Fabric;
use mpmd_splitc as sc;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Synchronous writes followed by reads observe exactly what was
    /// written, for any write pattern across any node layout.
    #[test]
    fn write_then_read_round_trips(
        nodes in 2usize..5,
        writes in proptest::collection::vec(
            (any::<u16>(), any::<f64>().prop_filter("finite", |x| x.is_finite())), 1..20),
    ) {
        let ok = Arc::new(Mutex::new(true));
        let ok2 = Arc::clone(&ok);
        mpmd_sim::Sim::new(nodes).run(move |ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, 16, 0.0);
            sc::barrier(&ctx);
            if ctx.node() == 0 {
                // Apply writes in order; remember the final value per slot.
                let mut model = std::collections::HashMap::new();
                for (slot, v) in &writes {
                    let idx = *slot as usize % a.len();
                    sc::write(&ctx, a.gp_block(idx), *v);
                    model.insert(idx, *v);
                }
                for (idx, v) in model {
                    let got = sc::read(&ctx, a.gp_block(idx));
                    if got.to_bits() != v.to_bits() {
                        *ok2.lock() = false;
                    }
                }
            }
            sc::barrier(&ctx);
        });
        prop_assert!(*ok.lock());
    }

    /// Split-phase gets agree with synchronous reads (they see the same
    /// memory), and sync() always quiesces.
    #[test]
    fn gets_agree_with_reads(
        values in proptest::collection::vec(
            any::<f64>().prop_filter("finite", |x| x.is_finite()), 1..24),
    ) {
        let values2 = values.clone();
        mpmd_sim::Sim::new(2).run(move |ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, values2.len(), 0.0);
            if ctx.node() == 1 {
                sc::with_local(&ctx, a.region, |v| v.copy_from_slice(&values2));
            }
            sc::barrier(&ctx);
            if ctx.node() == 0 {
                let handles: Vec<_> = (0..values2.len())
                    .map(|i| sc::get(&ctx, a.node_chunk(1).add(i)))
                    .collect();
                sc::sync(&ctx);
                for (i, h) in handles.iter().enumerate() {
                    assert_eq!(h.value().to_bits(), values2[i].to_bits());
                    let direct = sc::read(&ctx, a.node_chunk(1).add(i));
                    assert_eq!(direct.to_bits(), values2[i].to_bits());
                }
            }
            sc::barrier(&ctx);
        });
    }

    /// Bulk writes and bulk reads are inverses for arbitrary lengths and
    /// offsets.
    #[test]
    fn bulk_round_trip(
        len in 1usize..64,
        offset in 0usize..32,
        seed in any::<u64>(),
    ) {
        mpmd_sim::Sim::new(2).run(move |ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, offset + len, 0.0);
            sc::barrier(&ctx);
            if ctx.node() == 0 {
                let vals: Vec<f64> = (0..len)
                    .map(|i| ((seed.wrapping_add(i as u64) % 1000) as f64) * 0.25 - 100.0)
                    .collect();
                sc::bulk_write(&ctx, a.node_chunk(1).add(offset), &vals);
                let got = sc::bulk_read(&ctx, a.node_chunk(1).add(offset), len);
                assert_eq!(got, vals);
            }
            sc::barrier(&ctx);
        });
    }

    /// One-way stores from every node all land after all_store_sync,
    /// regardless of how many and where.
    #[test]
    fn stores_quiesce_globally(
        nodes in 2usize..5,
        stores_per_node in 0usize..12,
    ) {
        mpmd_sim::Sim::new(nodes).run(move |ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, nodes * stores_per_node.max(1), 0.0);
            sc::barrier(&ctx);
            // Node k stores k+1 into slots [k*spn, (k+1)*spn) of node (k+1).
            let target = (ctx.node() + 1) % nodes;
            for i in 0..stores_per_node {
                sc::store(
                    &ctx,
                    a.node_chunk(target).add(ctx.node() * stores_per_node + i),
                    (ctx.node() + 1) as f64,
                );
            }
            sc::all_store_sync(&ctx);
            // Verify what the predecessor stored into us.
            let pred = (ctx.node() + nodes - 1) % nodes;
            sc::with_local(&ctx, a.region, |v| {
                for i in 0..stores_per_node {
                    assert_eq!(
                        v[pred * stores_per_node + i],
                        (pred + 1) as f64,
                        "store {i} from node {pred} missing"
                    );
                }
            });
            sc::barrier(&ctx);
        });
    }

    /// Reductions compute exact sums/maxima for arbitrary contributions.
    #[test]
    fn reductions_are_exact(
        contributions in proptest::collection::vec(0u64..1_000_000, 2..5),
    ) {
        let nodes = contributions.len();
        let expected_sum: u64 = contributions.iter().sum();
        let expected_max: u64 = *contributions.iter().max().unwrap();
        let contributions2 = contributions.clone();
        mpmd_sim::Sim::new(nodes).run(move |ctx| {
            sc::init(&ctx);
            let s = sc::reduce_sum_u64(&ctx, contributions2[ctx.node()]);
            assert_eq!(s, expected_sum);
            let m = sc::reduce(&ctx, sc::ReduceOp::MaxU64, contributions2[ctx.node()]);
            assert_eq!(m, expected_max);
        });
    }

    /// Atomic adds from all nodes accumulate exactly (integer-valued floats
    /// avoid rounding concerns).
    #[test]
    fn atomic_adds_accumulate(
        nodes in 2usize..5,
        adds_per_node in 1usize..10,
    ) {
        mpmd_sim::Sim::new(nodes).run(move |ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, 1, 0.0);
            sc::barrier(&ctx);
            for _ in 0..adds_per_node {
                sc::atomic_add(&ctx, a.node_chunk(0), 1.0);
            }
            sc::barrier(&ctx);
            if ctx.node() == 0 {
                let total = sc::with_local(&ctx, a.region, |v| v[0]);
                assert_eq!(total, (nodes * adds_per_node) as f64);
            }
            sc::barrier(&ctx);
        });
    }
}
