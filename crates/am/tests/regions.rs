//! The region table both runtimes keep per node: ids, lookups, and the
//! canonical commit of staged accumulates. The table is node-local state, so
//! each case runs as the one task of a one-node simulation.

use mpmd_am::{pack_addr, unpack_addr, RegionTable};
use mpmd_sim::{Ctx, Sim};

/// Values whose sum depends on the order they are added in.
const SRC0: [f64; 2] = [1.0, 1e16];
const SRC1: [f64; 2] = [-1e16, 3.0];
const SRC2: [f64; 2] = [0.5, 1e-3];

fn fold(adds: &[f64]) -> f64 {
    adds.iter().fold(0.0, |acc, d| acc + d)
}

/// Run `case` on a fresh table, as a task of the table's node.
fn on_a_node(case: fn(&Ctx, &RegionTable)) {
    Sim::new(1).run(move |ctx| case(&ctx, &RegionTable::default()));
}

/// Region `id`'s contents.
fn read(ctx: &Ctx, t: &RegionTable, id: u32) -> Vec<f64> {
    t.with(ctx, id, |v| v.clone())
}

#[test]
fn ids_count_up_from_one() {
    on_a_node(|ctx, t| {
        assert_eq!(t.alloc(ctx, 2, 1.5), 1);
        assert_eq!(t.alloc(ctx, 0, 0.0), 2);
        assert_eq!(t.alloc(ctx, 1, -1.0), 3);
        assert_eq!(read(ctx, t, 1), [1.5, 1.5]);
        assert_eq!(t.with(ctx, 3, |v| std::mem::replace(&mut v[0], 2.0)), -1.0);
        assert_eq!(read(ctx, t, 3), [2.0]);
    });
}

#[test]
fn staged_adds_commit_in_source_then_arrival_order() {
    on_a_node(staged_adds_commit_in_canonical_order);
}

fn staged_adds_commit_in_canonical_order(ctx: &Ctx, t: &RegionTable) {
    let r = t.alloc(ctx, 1, 0.0);
    // Arrival interleaves the senders; each sender's own order holds.
    let arrivals = [
        (1, SRC1[0]),
        (2, SRC2[0]),
        (0, SRC0[0]),
        (1, SRC1[1]),
        (0, SRC0[1]),
        (2, SRC2[1]),
    ];
    for (src, d) in arrivals {
        t.stage_add(ctx, src, r, 0, &[d.to_bits()]);
    }
    assert_eq!(read(ctx, t, r)[0], 0.0, "staging touches no memory");
    t.commit_staged(ctx);
    let canonical = fold(&[SRC0, SRC1, SRC2].concat());
    let in_arrival_order = fold(&arrivals.map(|(_, d)| d));
    assert_ne!(canonical.to_bits(), in_arrival_order.to_bits());
    assert_eq!(read(ctx, t, r)[0].to_bits(), canonical.to_bits());
    // The commit drained the stage: a second one adds nothing.
    t.commit_staged(ctx);
    assert_eq!(read(ctx, t, r)[0].to_bits(), canonical.to_bits());
}

#[test]
fn one_and_three_component_adds_mix() {
    on_a_node(|ctx, t| {
        let r = t.alloc(ctx, 4, 10.0);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        // `__add3f` / `H_ATOMIC_ADD3` send a packed address and three deltas;
        // `__addf` one delta.
        let (region, offset) = unpack_addr(pack_addr(r, 1));
        t.stage_add(ctx, 1, region, offset, &bits(&[1.0, 2.0, 3.0]));
        t.stage_add(ctx, 0, r, 2, &bits(&[0.25]));
        t.stage_add(ctx, 1, r, 0, &bits(&[-10.0]));
        t.commit_staged(ctx);
        assert_eq!(read(ctx, t, r), [0.0, 11.0, 12.25, 13.0]);
    });
}

#[test]
#[should_panic(expected = "unknown region 7")]
fn an_unknown_region_panics_with_its_id() {
    on_a_node(|ctx, t| {
        t.alloc(ctx, 1, 0.0);
        read(ctx, t, 7);
    });
}

#[test]
#[should_panic(expected = "unknown region 0")]
fn region_zero_is_never_allocated() {
    on_a_node(|ctx, t| {
        t.alloc(ctx, 1, 0.0);
        read(ctx, t, 0);
    });
}
