//! EM3D in Split-C.

use super::graph::{Em3dParams, Em3dValues, Graph};
use super::plan::{phase_plan, PhasePlan};
use super::{Em3dVersion, EDGE_FLOPS};
use crate::common::{charge_flops, run_collect, AppBreakdown, AppRun, RegionTimer};
use mpmd_fabric::Fabric;
use mpmd_sim::CostModel;
use mpmd_splitc as sc;
use mpmd_splitc::GlobalPtr;

/// Per-node state for one run.
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

/// Run EM3D under the Split-C runtime and return node 0's measurements plus
/// the final field values (gathered after the timed region).
pub fn run_splitc(p: &Em3dParams, version: Em3dVersion) -> AppRun<Em3dValues> {
    let p = p.clone();
    run_collect(p.procs, CostModel::default(), move |ctx| {
        run_splitc_on(ctx, &p, version, None)
    })
}

/// The per-node program, generic over the fabric: the same code runs under
/// the simulator (via [`run_splitc`]) and on the wall-clock backend.
pub fn run_splitc_on<F: Fabric>(
    ctx: &F,
    p: &Em3dParams,
    version: Em3dVersion,
    coalescing: Option<sc::CoalesceConfig>,
) -> Option<AppRun<Em3dValues>> {
    sc::init_coalesced(ctx, coalescing);
    let g = Graph::generate(p);
    let me = ctx.node();
    let per = g.per_proc();
    let plan_e = phase_plan(&g, me, true);
    let plan_h = phase_plan(&g, me, false);
    let e_reg = sc::alloc_region(ctx, per, 0.0);
    let h_reg = sc::alloc_region(ctx, per, 0.0);
    let ghost_h_reg = sc::alloc_region(ctx, plan_e.ghost_len.max(1), 0.0);
    let ghost_e_reg = sc::alloc_region(ctx, plan_h.ghost_len.max(1), 0.0);
    let init = g.initial_values();
    sc::with_local(ctx, e_reg, |v| {
        v.copy_from_slice(&init.e[me * per..(me + 1) * per])
    });
    sc::with_local(ctx, h_reg, |v| {
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

    let timer = RegionTimer::start(ctx, sc::barrier);
    for _ in 0..p.steps {
        phase(ctx, &node, version, true);
        sc::barrier(ctx);
        phase(ctx, &node, version, false);
        sc::barrier(ctx);
    }
    let report = timer.stop(ctx, sc::barrier);

    // Gather final values on node 0 (outside the timed region).
    let out = if me == 0 {
        let mut vals = Em3dValues {
            e: vec![0.0; node.g.e_count],
            h: vec![0.0; node.g.h_count],
        };
        for q in 0..node.g.procs {
            let (e_chunk, h_chunk) = if q == 0 {
                (
                    sc::with_local(ctx, e_reg, |v| v.clone()),
                    sc::with_local(ctx, h_reg, |v| v.clone()),
                )
            } else {
                (
                    sc::bulk_read(
                        ctx,
                        GlobalPtr {
                            node: q,
                            region: e_reg,
                            offset: 0,
                        },
                        per,
                    ),
                    sc::bulk_read(
                        ctx,
                        GlobalPtr {
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
    sc::barrier(ctx);
    out.map(|values| AppRun {
        breakdown: AppBreakdown::from_report(&report.expect("node 0 timed the region")),
        output: values,
    })
}

/// One half-step: update this node's E values from H neighbors
/// (`read_h = true`) or vice versa.
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
            // Dereference a global pointer for every neighbor, every time.
            let mut new_vals = Vec::with_capacity(per);
            for local in 0..per {
                let global = n.me * per + local;
                let mut acc = 0.0;
                for &(nbr, w) in &adj[global] {
                    let v = sc::read(
                        ctx,
                        GlobalPtr {
                            node: owner(nbr),
                            region: src_reg,
                            offset: g.local_index(nbr),
                        },
                    );
                    acc += w * v;
                }
                charge_flops(ctx, EDGE_FLOPS * adj[global].len() as u64 + 2);
                let old = sc::with_local(ctx, dst_reg, |v| v[local]);
                new_vals.push(old - acc * 0.01);
            }
            sc::with_local(ctx, dst_reg, |v| v.copy_from_slice(&new_vals));
        }
        Em3dVersion::Ghost => {
            // Fetch every unique remote neighbor once with split-phase gets.
            let mut handles = Vec::with_capacity(plan.ghost_len);
            for owner_p in 0..g.procs {
                for &id in &plan.needed_by_owner[owner_p] {
                    handles.push(sc::get(
                        ctx,
                        GlobalPtr {
                            node: owner_p,
                            region: src_reg,
                            offset: g.local_index(id),
                        },
                    ));
                }
            }
            sc::sync(ctx);
            let ghosts: Vec<f64> = handles.iter().map(|h| h.value()).collect();
            compute_with_ghosts(ctx, n, adj, src_reg, dst_reg, plan, &ghosts, owner);
        }
        Em3dVersion::Bulk => {
            // Push every value a peer needs as one bulk store per peer.
            let local_src = sc::with_local(ctx, src_reg, |v| v.clone());
            for peer in 0..g.procs {
                let (ids, base) = &plan.send_to[peer];
                if ids.is_empty() {
                    continue;
                }
                let vals: Vec<f64> = ids.iter().map(|&id| local_src[g.local_index(id)]).collect();
                sc::bulk_store(
                    ctx,
                    GlobalPtr {
                        node: peer,
                        region: ghost_reg,
                        offset: *base,
                    },
                    &vals,
                );
            }
            sc::all_store_sync(ctx);
            let ghosts = sc::with_local(ctx, ghost_reg, |v| v.clone());
            compute_with_ghosts(ctx, n, adj, src_reg, dst_reg, plan, &ghosts, owner);
        }
    }
}

/// Pure-local compute once ghost values are in place.
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
    let local_src = sc::with_local(ctx, src_reg, |v| v.clone());
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
        let old = sc::with_local(ctx, dst_reg, |v| v[local]);
        new_vals.push(old - acc * 0.01);
    }
    sc::with_local(ctx, dst_reg, |v| v.copy_from_slice(&new_vals));
}
