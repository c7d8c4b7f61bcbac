//! EM3D: electromagnetic wave propagation on a bipartite graph.
//!
//! "The main data structure is a distributed graph. Half of its nodes
//! represent values of an electric field (E) at selected points in space,
//! and the other corresponds to values of the magnetic field (H)...
//! Computation consists of a sequence of identical steps: each processor
//! updates values of its local H- and E-nodes as a weighed sum of their
//! neighbors."
//!
//! Three versions, as in the paper:
//! * **base** — dereference a global pointer to a remote node each time a
//!   value is needed;
//! * **ghost** — fetch each unique remote neighbor once per step into local
//!   ghost nodes, then compute locally (Split-C: split-phase gets; CC++:
//!   `parfor` prefetch);
//! * **bulk** — aggregate all values travelling between a pair of
//!   processors into one bulk transfer (Split-C: one-way bulk stores; CC++:
//!   bulk-put RMIs).

mod ccxx_impl;
mod graph;
mod plan;
mod splitc_impl;

pub use ccxx_impl::{run_ccxx, run_ccxx_on};
pub use graph::{em3d_reference, Em3dParams, Em3dValues, Graph};
pub use splitc_impl::{run_splitc, run_splitc_on};

/// FP cost charged per traversed edge: ~30 FLOPs (≈0.3 µs at the SP node's
/// effective rate), covering the weighted sum plus the pointer-chasing and
/// loop overhead of a mid-90s graph traversal. Calibrated so the em3d-bulk
/// version is compute-dominated, as the paper's near-parity at tiny
/// transfer sizes implies ("the total number of bytes transferred per edge
/// is very small (about 5 bytes)").
pub const EDGE_FLOPS: u64 = 30;

/// Which data-transfer strategy a run uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Em3dVersion {
    Base,
    Ghost,
    Bulk,
}

impl Em3dVersion {
    pub fn label(self) -> &'static str {
        match self {
            Em3dVersion::Base => "em3d-base",
            Em3dVersion::Ghost => "em3d-ghost",
            Em3dVersion::Bulk => "em3d-bulk",
        }
    }

    pub const ALL: [Em3dVersion; 3] = [Em3dVersion::Base, Em3dVersion::Ghost, Em3dVersion::Bulk];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Lang;
    use mpmd_ccxx::CcxxConfig;
    use mpmd_sim::CostModel;

    fn small_params(remote_frac: f64) -> Em3dParams {
        Em3dParams {
            graph_nodes: 80,
            degree: 4,
            procs: 4,
            steps: 3,
            remote_frac,
            seed: 7,
        }
    }

    fn assert_matches_reference(p: &Em3dParams, got: &Em3dValues) {
        let want = em3d_reference(p);
        assert_eq!(got.e.len(), want.e.len());
        for (i, (a, b)) in got.e.iter().zip(&want.e).enumerate() {
            assert_eq!(a, b, "E value {i} differs");
        }
        for (i, (a, b)) in got.h.iter().zip(&want.h).enumerate() {
            assert_eq!(a, b, "H value {i} differs");
        }
    }

    #[test]
    fn splitc_base_matches_reference() {
        let p = small_params(0.5);
        let run = run_splitc(&p, Em3dVersion::Base);
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn splitc_ghost_matches_reference() {
        let p = small_params(0.5);
        let run = run_splitc(&p, Em3dVersion::Ghost);
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn splitc_bulk_matches_reference() {
        let p = small_params(0.5);
        let run = run_splitc(&p, Em3dVersion::Bulk);
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn ccxx_base_matches_reference() {
        let p = small_params(0.5);
        let run = run_ccxx(
            &p,
            Em3dVersion::Base,
            CcxxConfig::tham(),
            CostModel::default(),
        );
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn ccxx_ghost_matches_reference() {
        let p = small_params(0.5);
        let run = run_ccxx(
            &p,
            Em3dVersion::Ghost,
            CcxxConfig::tham(),
            CostModel::default(),
        );
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn ccxx_bulk_matches_reference() {
        let p = small_params(0.5);
        let run = run_ccxx(
            &p,
            Em3dVersion::Bulk,
            CcxxConfig::tham(),
            CostModel::default(),
        );
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn all_remote_fractions_agree_across_versions() {
        for frac in [0.0, 0.1, 1.0] {
            let p = small_params(frac);
            let want = em3d_reference(&p);
            for v in Em3dVersion::ALL {
                let run = run_splitc(&p, v);
                assert_eq!(run.output.e, want.e, "{} frac {frac}", v.label());
            }
        }
    }

    #[test]
    fn ghost_is_faster_than_base_and_bulk_faster_than_ghost() {
        // The paper: ghost reduces base by 87-89%; bulk reduces ghost by
        // >95% (at 100% remote edges, larger graph). At this small scale we
        // only assert the ordering.
        let p = small_params(1.0);
        let base = run_splitc(&p, Em3dVersion::Base).breakdown.elapsed;
        let ghost = run_splitc(&p, Em3dVersion::Ghost).breakdown.elapsed;
        let bulk = run_splitc(&p, Em3dVersion::Bulk).breakdown.elapsed;
        assert!(ghost < base, "ghost {ghost} !< base {base}");
        assert!(bulk < ghost, "bulk {bulk} !< ghost {ghost}");
    }

    #[test]
    fn ccxx_is_slower_than_splitc_at_full_remote() {
        let p = small_params(1.0);
        let sc = run_splitc(&p, Em3dVersion::Base).breakdown.elapsed;
        let cc = run_ccxx(
            &p,
            Em3dVersion::Base,
            CcxxConfig::tham(),
            CostModel::default(),
        )
        .breakdown
        .elapsed;
        let ratio = cc as f64 / sc as f64;
        assert!(
            (1.3..4.0).contains(&ratio),
            "cc++/split-c em3d-base ratio = {ratio:.2} (paper: ~2)"
        );
        let _ = Lang::SplitC;
    }
}
