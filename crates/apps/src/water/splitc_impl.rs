//! Water in Split-C.

use super::model::{
    apply_correct, apply_predict, half_shell, pair_force, WaterParams, WaterState, INTRA_FLOPS,
    PAIR_FLOPS,
};
use super::{WaterOutput, WaterVersion};
use crate::common::{charge_flops, run_collect, AppBreakdown, AppRun, RegionTimer};
use mpmd_fabric::Fabric;
use mpmd_sim::CostModel;
use mpmd_splitc as sc;
use mpmd_splitc::GlobalPtr;
use std::collections::BTreeMap;

/// The distinct remote molecules appearing in this node's half-shells (the
/// "selected data of remote molecules" that the prefetch version bundles).
pub(super) fn remote_molecules(me: usize, n: usize, n_local: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for li in 0..n_local {
        let gi = me * n_local + li;
        for gj in half_shell(gi, n) {
            if gj / n_local != me && seen.insert(gj) {
                out.push(gj);
            }
        }
    }
    out
}

/// Run Water under the Split-C runtime.
pub fn run_splitc(p: &WaterParams, version: WaterVersion) -> AppRun<WaterOutput> {
    let p = p.clone();
    run_collect(p.procs, CostModel::default(), move |ctx| {
        run_splitc_on(ctx, &p, version, None)
    })
}

/// The per-node program, generic over the fabric.
pub fn run_splitc_on<F: Fabric>(
    ctx: &F,
    p: &WaterParams,
    version: WaterVersion,
    coalescing: Option<sc::CoalesceConfig>,
) -> Option<AppRun<WaterOutput>> {
    sc::init_coalesced(ctx, coalescing);
    let n = p.n_mol;
    let me = ctx.node();
    assert!(
        n.is_multiple_of(p.procs),
        "molecules must divide evenly over procs"
    );
    let n_local = n / p.procs;
    let owner = |j: usize| j / n_local;
    let loc = |j: usize| j % n_local;

    let pos_reg = sc::alloc_region(ctx, 3 * n_local, 0.0);
    let frc_reg = sc::alloc_region(ctx, 3 * n_local, 0.0);
    let init = WaterState::initial(p);
    sc::with_local(ctx, pos_reg, |v| {
        v.copy_from_slice(&init.pos[3 * me * n_local..3 * (me + 1) * n_local])
    });
    let mut vel: Vec<f64> = init.vel[3 * me * n_local..3 * (me + 1) * n_local].to_vec();

    let timer = RegionTimer::start(ctx, sc::barrier);
    let mut energy_total = 0.0;
    for _ in 0..p.steps {
        // Predictor.
        sc::with_local(ctx, pos_reg, |pos| apply_predict(pos, &vel));
        charge_flops(ctx, INTRA_FLOPS * n_local as u64);
        sc::barrier(ctx);
        // Zero forces, globally visible before anyone accumulates.
        sc::with_local(ctx, frc_reg, |f| f.fill(0.0));
        sc::barrier(ctx);

        // Inter-molecular phase.
        let local_pos = sc::with_local(ctx, pos_reg, |v| v.clone());
        let prefetched: Option<std::collections::HashMap<usize, [f64; 3]>> = match version {
            WaterVersion::Atomic => None,
            WaterVersion::Prefetch => {
                // Selective prefetching: bundle each remote molecule's
                // position and fetch it with one split-phase bulk get.
                let remote_mols = remote_molecules(me, n, n_local);
                let handles: Vec<_> = remote_mols
                    .iter()
                    .map(|&gj| {
                        sc::get_bulk(
                            ctx,
                            GlobalPtr {
                                node: owner(gj),
                                region: pos_reg,
                                offset: 3 * loc(gj),
                            },
                            3,
                        )
                    })
                    .collect();
                sc::sync(ctx);
                Some(
                    remote_mols
                        .iter()
                        .zip(&handles)
                        .map(|(&gj, h)| {
                            let v = h.values();
                            (gj, [v[0], v[1], v[2]])
                        })
                        .collect(),
                )
            }
        };
        // Phase barrier: without it, a fetch request arriving just after
        // its owner's last poll would sit unserviced through the owner's
        // entire compute phase — the queuing-delay problem §3 of the paper
        // describes for poll-based reception.
        sc::barrier(ctx);
        let mut local_force = vec![0.0f64; 3 * n_local];
        let mut remote_force: BTreeMap<usize, [f64; 3]> = BTreeMap::new();
        let mut energy = 0.0;
        for li in 0..n_local {
            let gi = me * n_local + li;
            let pi: [f64; 3] = local_pos[3 * li..3 * li + 3].try_into().unwrap();
            for gj in half_shell(gi, n) {
                let pj: [f64; 3] = if owner(gj) == me {
                    local_pos[3 * loc(gj)..3 * loc(gj) + 3].try_into().unwrap()
                } else {
                    match &prefetched {
                        // Atomic version: read the remote molecule each pair.
                        None => sc::read_vec3(
                            ctx,
                            GlobalPtr {
                                node: owner(gj),
                                region: pos_reg,
                                offset: 3 * loc(gj),
                            },
                        ),
                        Some(cache) => cache[&gj],
                    }
                };
                let (f, u) = pair_force(&pi, &pj, p.box_size);
                charge_flops(ctx, PAIR_FLOPS);
                energy += u;
                for k in 0..3 {
                    local_force[3 * li + k] += f[k];
                }
                if owner(gj) == me {
                    for k in 0..3 {
                        local_force[3 * loc(gj) + k] -= f[k];
                    }
                } else {
                    let e = remote_force.entry(gj).or_insert([0.0; 3]);
                    for k in 0..3 {
                        e[k] -= f[k];
                    }
                }
            }
        }
        // Local accumulation.
        sc::with_local(ctx, frc_reg, |f| {
            for k in 0..f.len() {
                f[k] += local_force[k];
            }
        });
        // Remote accumulation: atomic read-modify-write updates.
        for (gj, f) in &remote_force {
            sc::atomic_add3(
                ctx,
                GlobalPtr {
                    node: owner(*gj),
                    region: frc_reg,
                    offset: 3 * loc(*gj),
                },
                *f,
            );
        }
        sc::barrier(ctx);

        // Corrector.
        let frc = sc::with_local(ctx, frc_reg, |v| v.clone());
        apply_correct(&mut vel, &frc);
        charge_flops(ctx, 6 * n_local as u64);
        energy_total = sc::reduce_sum_f64(ctx, energy);
    }
    let report = timer.stop(ctx, sc::barrier);

    let out = if me == 0 {
        let mut pos = vec![0.0; 3 * n];
        for q in 0..p.procs {
            let chunk = if q == 0 {
                sc::with_local(ctx, pos_reg, |v| v.clone())
            } else {
                sc::bulk_read(
                    ctx,
                    GlobalPtr {
                        node: q,
                        region: pos_reg,
                        offset: 0,
                    },
                    3 * n_local,
                )
            };
            pos[3 * q * n_local..3 * (q + 1) * n_local].copy_from_slice(&chunk);
        }
        Some(WaterOutput {
            pos,
            energy: energy_total,
        })
    } else {
        None
    };
    sc::barrier(ctx);
    out.map(|output| AppRun {
        breakdown: AppBreakdown::from_report(&report.expect("node 0 timed the region")),
        output,
    })
}
