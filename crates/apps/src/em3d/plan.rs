//! Communication planning for the ghost and bulk EM3D versions.
//!
//! The graph is a deterministic function of the parameters and is generated
//! identically on every node, so each node can compute both its own receive
//! layout and every peer's — which is how the bulk version knows where to
//! push ("aggregating all ghost nodes being transferred from one processor
//! to another").

use super::graph::Graph;

/// [`PhasePlan::ghost_index`] of a global id that is not a ghost: indexing
/// the ghost array with it panics.
pub const NOT_GHOST: usize = usize::MAX;

/// The per-(node, phase) exchange plan.
#[derive(Clone, Debug)]
pub struct PhasePlan {
    /// For each owner processor: the global ids this node must fetch from
    /// it (first-use order; empty for self).
    pub needed_by_owner: Vec<Vec<usize>>,
    /// Global id -> index into this node's ghost array, one entry per id
    /// of the side this phase reads ([`NOT_GHOST`] for the ids it does not
    /// fetch).
    pub ghost_index: Vec<usize>,
    /// Ghost array length.
    pub ghost_len: usize,
    /// For each peer: (global ids owned by this node that the peer needs,
    /// base offset of this node's group in the peer's ghost array).
    pub send_to: Vec<(Vec<usize>, usize)>,
}

/// Unique remote ids that `proc` reads in the given phase, grouped by owner
/// in first-use order. `read_h` selects the E-phase (E nodes read H values).
fn needed_lists(g: &Graph, proc: usize, read_h: bool) -> Vec<Vec<usize>> {
    let per = g.per_proc();
    let mut lists = vec![Vec::new(); g.procs];
    let mut seen = vec![false; read_count(g, read_h)];
    type OwnerFn = fn(&Graph, usize) -> usize;
    let (adj, owner_of): (&Vec<Vec<(usize, f64)>>, OwnerFn) = if read_h {
        (&g.e_adj, Graph::h_owner)
    } else {
        (&g.h_adj, Graph::e_owner)
    };
    for local in 0..per {
        let me_global = proc * per + local;
        for &(nbr, _) in &adj[me_global] {
            let o = owner_of(g, nbr);
            if o != proc && !std::mem::replace(&mut seen[nbr], true) {
                lists[o].push(nbr);
            }
        }
    }
    lists
}

/// How many ids the side a phase reads has: H nodes when `read_h`.
fn read_count(g: &Graph, read_h: bool) -> usize {
    if read_h {
        g.h_count
    } else {
        g.e_count
    }
}

/// Build the full exchange plan for `proc` in the given phase.
pub fn phase_plan(g: &Graph, proc: usize, read_h: bool) -> PhasePlan {
    let needed_by_owner = needed_lists(g, proc, read_h);
    let mut ghost_index = vec![NOT_GHOST; read_count(g, read_h)];
    let mut next = 0usize;
    for owner_list in &needed_by_owner {
        for &id in owner_list {
            ghost_index[id] = next;
            next += 1;
        }
    }
    // What every peer needs from `proc`, and where it lands in their array.
    let mut send_to = Vec::with_capacity(g.procs);
    for peer in 0..g.procs {
        if peer == proc {
            send_to.push((Vec::new(), 0));
            continue;
        }
        let peer_needs = needed_lists(g, peer, read_h);
        let base: usize = peer_needs[..proc].iter().map(Vec::len).sum();
        send_to.push((peer_needs[proc].clone(), base));
    }
    PhasePlan {
        needed_by_owner,
        ghost_index,
        ghost_len: next,
        send_to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::graph::Em3dParams;

    fn graph() -> Graph {
        Graph::generate(&Em3dParams {
            graph_nodes: 200,
            degree: 5,
            procs: 4,
            steps: 1,
            remote_frac: 0.6,
            seed: 11,
        })
    }

    #[test]
    fn ghost_indices_are_dense_and_unique() {
        let g = graph();
        for proc in 0..4 {
            let p = phase_plan(&g, proc, true);
            let mut seen = vec![false; p.ghost_len];
            for &i in p.ghost_index.iter().filter(|&&i| i != NOT_GHOST) {
                assert!(!seen[i], "duplicate ghost index {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn nothing_needed_from_self() {
        let g = graph();
        for proc in 0..4 {
            let p = phase_plan(&g, proc, false);
            assert!(p.needed_by_owner[proc].is_empty());
            assert!(p.send_to[proc].0.is_empty());
        }
    }

    #[test]
    fn send_lists_mirror_needed_lists() {
        let g = graph();
        for a in 0..4usize {
            let plan_a = phase_plan(&g, a, true);
            for b in 0..4usize {
                if a == b {
                    continue;
                }
                let plan_b = phase_plan(&g, b, true);
                // What a sends to b == what b needs from a, in order.
                assert_eq!(plan_a.send_to[b].0, plan_b.needed_by_owner[a]);
                // And lands at b's group base for a.
                let base: usize = plan_b.needed_by_owner[..a].iter().map(Vec::len).sum();
                assert_eq!(plan_a.send_to[b].1, base);
            }
        }
    }

    #[test]
    fn every_needed_id_is_remote() {
        let g = graph();
        let p = phase_plan(&g, 1, true);
        for (owner, list) in p.needed_by_owner.iter().enumerate() {
            for &h in list {
                assert_eq!(g.h_owner(h), owner);
                assert_ne!(owner, 1);
            }
        }
    }
}
