//! sc-lu: one-way pivot stores and split-phase block prefetches.

use super::matrix::*;
use super::LuOutput;
use crate::common::{charge_flops, run_collect, AppBreakdown, AppRun, RegionTimer};
use mpmd_fabric::Fabric;
use mpmd_sim::CostModel;
use mpmd_splitc as sc;
use mpmd_splitc::GlobalPtr;
use std::collections::HashMap;

/// Run blocked LU under the Split-C runtime.
pub fn run_splitc(p: &LuParams) -> AppRun<LuOutput> {
    let p = p.clone();
    run_collect(p.procs, CostModel::default(), move |ctx| {
        run_splitc_on(ctx, &p, None)
    })
}

/// The per-node program, generic over the fabric.
pub fn run_splitc_on<F: Fabric>(
    ctx: &F,
    p: &LuParams,
    coalescing: Option<sc::CoalesceConfig>,
) -> Option<AppRun<LuOutput>> {
    sc::init_coalesced(ctx, coalescing);
    let me = ctx.node();
    let b = p.block;
    let nb = p.nb();
    let map = BlockMap::new(p);
    let blocks_reg = sc::alloc_region(ctx, map.owned_elems[me].max(1), 0.0);
    let pivot_reg = sc::alloc_region(ctx, b * b, 0.0);

    // Scatter the input: every node extracts its own blocks.
    let full = generate_matrix(p);
    sc::with_local(ctx, blocks_reg, |store| {
        for bi in 0..nb {
            for bj in 0..nb {
                if map.owner(bi, bj) == me {
                    let blk = extract_block(&full, p.n, b, bi, bj);
                    let off = map.offset(bi, bj);
                    store[off..off + b * b].copy_from_slice(&blk);
                }
            }
        }
    });
    drop(full);

    let timer = RegionTimer::start(ctx, sc::barrier);
    for k in 0..nb {
        let pivot_owner = map.owner(k, k);
        // Sub-step 1: factor the pivot block.
        if pivot_owner == me {
            let off = map.offset(k, k);
            let mut pivot = sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec());
            factor_block(&mut pivot, b);
            charge_flops(ctx, factor_flops(b as u64));
            sc::with_local(ctx, blocks_reg, |s| {
                s[off..off + b * b].copy_from_slice(&pivot)
            });
            // Sub-step 2 (push half): one-way bulk stores of the pivot to
            // every processor that owns perimeter blocks of step k.
            for q in needing_procs(&map, k, nb) {
                if q != me {
                    sc::bulk_store(
                        ctx,
                        GlobalPtr {
                            node: q,
                            region: pivot_reg,
                            offset: 0,
                        },
                        &pivot,
                    );
                }
            }
        }
        sc::all_store_sync(ctx);
        let pivot: Vec<f64> = if pivot_owner == me {
            let off = map.offset(k, k);
            sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec())
        } else {
            sc::with_local(ctx, pivot_reg, |s| s.clone())
        };

        // Sub-step 2 (update half): perimeter row and column blocks.
        for j in k + 1..nb {
            if map.owner(k, j) == me {
                let off = map.offset(k, j);
                let mut blk = sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec());
                solve_lower(&pivot, &mut blk, b);
                charge_flops(ctx, solve_flops(b as u64));
                sc::with_local(ctx, blocks_reg, |s| {
                    s[off..off + b * b].copy_from_slice(&blk)
                });
            }
        }
        for i in k + 1..nb {
            if map.owner(i, k) == me {
                let off = map.offset(i, k);
                let mut blk = sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec());
                solve_upper(&pivot, &mut blk, b);
                charge_flops(ctx, solve_flops(b as u64));
                sc::with_local(ctx, blocks_reg, |s| {
                    s[off..off + b * b].copy_from_slice(&blk)
                });
            }
        }
        sc::barrier(ctx);

        // Sub-step 3: prefetch all remote row/col blocks split-phase, sync,
        // then update every local interior block.
        let mut needed: Vec<(usize, usize)> = Vec::new();
        for i in k + 1..nb {
            for j in k + 1..nb {
                if map.owner(i, j) == me {
                    push_unique(&mut needed, (i, k));
                    push_unique(&mut needed, (k, j));
                }
            }
        }
        let mut fetched: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        let mut handles = Vec::new();
        for &(bi, bj) in &needed {
            let q = map.owner(bi, bj);
            if q == me {
                let off = map.offset(bi, bj);
                fetched.insert(
                    (bi, bj),
                    sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec()),
                );
            } else {
                handles.push((
                    (bi, bj),
                    sc::get_bulk(
                        ctx,
                        GlobalPtr {
                            node: q,
                            region: blocks_reg,
                            offset: map.offset(bi, bj),
                        },
                        b * b,
                    ),
                ));
            }
        }
        sc::sync(ctx);
        for (key, h) in handles {
            fetched.insert(key, h.values());
        }
        for i in k + 1..nb {
            for j in k + 1..nb {
                if map.owner(i, j) == me {
                    let off = map.offset(i, j);
                    let mut c = sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].to_vec());
                    block_mul_sub(&mut c, &fetched[&(i, k)], &fetched[&(k, j)], b);
                    charge_flops(ctx, update_flops(b as u64));
                    sc::with_local(ctx, blocks_reg, |s| s[off..off + b * b].copy_from_slice(&c));
                }
            }
        }
        sc::barrier(ctx);
    }
    let report = timer.stop(ctx, sc::barrier);

    // Gather the factored matrix on node 0.
    let out = if me == 0 {
        let mut full = vec![0.0f64; p.n * p.n];
        for q in 0..p.procs {
            let store = if q == 0 {
                sc::with_local(ctx, blocks_reg, |s| s.clone())
            } else {
                sc::bulk_read(
                    ctx,
                    GlobalPtr {
                        node: q,
                        region: blocks_reg,
                        offset: 0,
                    },
                    map.owned_elems[q].max(1),
                )
            };
            for bi in 0..nb {
                for bj in 0..nb {
                    if map.owner(bi, bj) == q {
                        let off = map.offset(bi, bj);
                        insert_block(&mut full, p.n, b, bi, bj, &store[off..off + b * b]);
                    }
                }
            }
        }
        Some(LuOutput { factored: full })
    } else {
        None
    };
    sc::barrier(ctx);
    out.map(|output| AppRun {
        breakdown: AppBreakdown::from_report(&report.expect("node 0 timed the region")),
        output,
    })
}

/// Processors owning any perimeter block of step `k` (they need the pivot).
pub(super) fn needing_procs(map: &BlockMap, k: usize, nb: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for j in k + 1..nb {
        push_unique(&mut out, map.owner(k, j));
        push_unique(&mut out, map.owner(j, k));
    }
    out
}

fn push_unique<T: PartialEq>(v: &mut Vec<T>, x: T) {
    if !v.contains(&x) {
        v.push(x);
    }
}
