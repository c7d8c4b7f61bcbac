//! EM3D in CC++.
//!
//! Mirrors the Split-C structure ("the CC++ version of these applications
//! is heavily based on the original Split-C implementations to allow for a
//! fair comparison"): base uses blocking global-pointer dereferences, ghost
//! uses `parfor` prefetching, bulk uses bulk-put RMIs.

use super::graph::{Em3dParams, Em3dValues, Graph};
use super::plan::{phase_plan, PhasePlan};
use super::{Em3dVersion, EDGE_FLOPS};
use crate::common::{charge_flops, run_collect, AppBreakdown, AppRun, RegionTimer};
use mpmd_ccxx as cx;
use mpmd_ccxx::{CcxxConfig, CxPtr};
use mpmd_fabric::Fabric;
use mpmd_sim::CostModel;

struct Node {
    g: Graph,
    me: usize,
    e_reg: u32,
    h_reg: u32,
    ghost_h_reg: u32,
    ghost_e_reg: u32,
    plan_e: PhasePlan,
    plan_h: PhasePlan,
}

/// Run EM3D under the CC++ runtime (ThAM by default; pass
/// `mpmd_nexus::nexus_config()` + `nexus_sim_cost_model()` for the
/// CC++/Nexus baseline).
pub fn run_ccxx(
    p: &Em3dParams,
    version: Em3dVersion,
    config: CcxxConfig,
    cost: CostModel,
) -> AppRun<Em3dValues> {
    let p = p.clone();
    run_collect(p.procs, cost, move |ctx| {
        run_ccxx_on(ctx, &p, version, config.clone())
    })
}

/// The per-node program, generic over the fabric.
pub fn run_ccxx_on<F: Fabric>(
    ctx: &F,
    p: &Em3dParams,
    version: Em3dVersion,
    config: CcxxConfig,
) -> Option<AppRun<Em3dValues>> {
    cx::init(ctx, config);
    let g = Graph::generate(p);
    let me = ctx.node();
    let per = g.per_proc();
    let plan_e = phase_plan(&g, me, true);
    let plan_h = phase_plan(&g, me, false);
    let e_reg = cx::alloc_region(ctx, per, 0.0);
    let h_reg = cx::alloc_region(ctx, per, 0.0);
    let ghost_h_reg = cx::alloc_region(ctx, plan_e.ghost_len.max(1), 0.0);
    let ghost_e_reg = cx::alloc_region(ctx, plan_h.ghost_len.max(1), 0.0);
    let init = g.initial_values();
    cx::with_local(ctx, e_reg, |v| {
        v.copy_from_slice(&init.e[me * per..(me + 1) * per])
    });
    cx::with_local(ctx, h_reg, |v| {
        v.copy_from_slice(&init.h[me * per..(me + 1) * per])
    });
    let node = Node {
        g,
        me,
        e_reg,
        h_reg,
        ghost_h_reg,
        ghost_e_reg,
        plan_e,
        plan_h,
    };

    let timer = RegionTimer::start(ctx, cx::barrier);
    for _ in 0..p.steps {
        phase(ctx, &node, version, true);
        cx::barrier(ctx);
        phase(ctx, &node, version, false);
        cx::barrier(ctx);
    }
    let report = timer.stop(ctx, cx::barrier);

    let out = if me == 0 {
        let mut vals = Em3dValues {
            e: vec![0.0; node.g.e_count],
            h: vec![0.0; node.g.h_count],
        };
        for q in 0..node.g.procs {
            let (e_chunk, h_chunk) = if q == 0 {
                (
                    cx::with_local(ctx, e_reg, |v| v.clone()),
                    cx::with_local(ctx, h_reg, |v| v.clone()),
                )
            } else {
                (
                    cx::bulk_get(
                        ctx,
                        CxPtr {
                            node: q,
                            region: e_reg,
                            offset: 0,
                        },
                        per,
                    ),
                    cx::bulk_get(
                        ctx,
                        CxPtr {
                            node: q,
                            region: h_reg,
                            offset: 0,
                        },
                        per,
                    ),
                )
            };
            vals.e[q * per..(q + 1) * per].copy_from_slice(&e_chunk);
            vals.h[q * per..(q + 1) * per].copy_from_slice(&h_chunk);
        }
        Some(vals)
    } else {
        None
    };
    cx::finalize(ctx);
    out.map(|values| AppRun {
        breakdown: AppBreakdown::from_report(&report.expect("node 0 timed the region")),
        output: values,
    })
}

fn phase<F: Fabric>(ctx: &F, n: &Node, version: Em3dVersion, read_h: bool) {
    let g = &n.g;
    let per = g.per_proc();
    let (adj, src_reg, dst_reg, ghost_reg, plan) = if read_h {
        (&g.e_adj, n.h_reg, n.e_reg, n.ghost_h_reg, &n.plan_e)
    } else {
        (&g.h_adj, n.e_reg, n.h_reg, n.ghost_e_reg, &n.plan_h)
    };
    let owner = |global: usize| {
        if read_h {
            g.h_owner(global)
        } else {
            g.e_owner(global)
        }
    };

    match version {
        Em3dVersion::Base => {
            // Every neighbor value through a (possibly remote) global
            // pointer dereference — a blocking RMI when remote, and still
            // a charged runtime call when local.
            let mut new_vals = Vec::with_capacity(per);
            for local in 0..per {
                let global = n.me * per + local;
                let mut acc = 0.0;
                for &(nbr, w) in &adj[global] {
                    let v = cx::gp_read(
                        ctx,
                        CxPtr {
                            node: owner(nbr),
                            region: src_reg,
                            offset: g.local_index(nbr),
                        },
                    );
                    acc += w * v;
                }
                charge_flops(ctx, EDGE_FLOPS * adj[global].len() as u64 + 2);
                let old = cx::with_local(ctx, dst_reg, |v| v[local]);
                new_vals.push(old - acc * 0.01);
            }
            cx::with_local(ctx, dst_reg, |v| v.copy_from_slice(&new_vals));
        }
        Em3dVersion::Ghost => {
            // parfor-prefetch all unique remote neighbors.
            let ptrs: Vec<CxPtr> = (0..g.procs)
                .flat_map(|owner_p| {
                    plan.needed_by_owner[owner_p]
                        .iter()
                        .map(move |&id| (owner_p, id))
                })
                .map(|(owner_p, id)| CxPtr {
                    node: owner_p,
                    region: src_reg,
                    offset: g.local_index(id),
                })
                .collect();
            let ghosts = cx::prefetch(ctx, &ptrs);
            compute_with_ghosts(ctx, n, adj, src_reg, dst_reg, plan, &ghosts, owner);
        }
        Em3dVersion::Bulk => {
            // One bulk-put RMI per peer, issued concurrently from a `par`
            // block so the (acknowledged) RMIs overlap like Split-C's
            // one-way stores do. The aggregated ghost array is a flat
            // double array, so its serialization is compiler-inlined (one
            // call + byte copy), like the LU block transfers.
            let local_src = cx::with_local(ctx, src_reg, |v| v.clone());
            let send_plan = if read_h { &n.plan_e } else { &n.plan_h };
            let mut bodies: Vec<Box<dyn FnOnce(F) + Send>> = Vec::new();
            for peer in 0..g.procs {
                let (ids, base) = &send_plan.send_to[peer];
                if ids.is_empty() {
                    continue;
                }
                let vals: Vec<f64> = ids.iter().map(|&id| local_src[g.local_index(id)]).collect();
                let dst = CxPtr {
                    node: peer,
                    region: ghost_reg,
                    offset: *base,
                };
                bodies.push(Box::new(move |cctx| {
                    cx::bulk_put_flat(&cctx, dst, &vals);
                }));
            }
            cx::par(ctx, bodies);
            cx::barrier(ctx);
            let ghosts = cx::with_local(ctx, ghost_reg, |v| v.clone());
            compute_with_ghosts(ctx, n, adj, src_reg, dst_reg, plan, &ghosts, owner);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compute_with_ghosts<F: Fabric>(
    ctx: &F,
    n: &Node,
    adj: &[Vec<(usize, f64)>],
    src_reg: u32,
    dst_reg: u32,
    plan: &PhasePlan,
    ghosts: &[f64],
    owner: impl Fn(usize) -> usize,
) {
    let g = &n.g;
    let per = g.per_proc();
    let local_src = cx::with_local(ctx, src_reg, |v| v.clone());
    let mut new_vals = Vec::with_capacity(per);
    for local in 0..per {
        let global = n.me * per + local;
        let mut acc = 0.0;
        for &(nbr, w) in &adj[global] {
            let v = if owner(nbr) == n.me {
                local_src[g.local_index(nbr)]
            } else {
                ghosts[plan.ghost_index[nbr]]
            };
            acc += w * v;
        }
        charge_flops(ctx, EDGE_FLOPS * adj[global].len() as u64 + 2);
        let old = cx::with_local(ctx, dst_reg, |v| v[local]);
        new_vals.push(old - acc * 0.01);
    }
    cx::with_local(ctx, dst_reg, |v| v.copy_from_slice(&new_vals));
}
