//! Water: N-body molecular dynamics (SPLASH), O(N²) inter-molecular forces
//! in a cubical box, predictor-corrector integration.
//!
//! Two versions, as in the paper:
//! * **atomic** — "issues atomic reads and writes to access and update the
//!   remote molecules": a small remote read per remote pair, atomic
//!   read-modify-write force updates;
//! * **prefetch** — "replaces the atomic read requests with selective
//!   prefetching, where selected data of remote molecules are bundled and
//!   fetched from their respective processors prior to local computing";
//!   force write-back stays atomic.

mod ccxx_impl;
mod model;
mod splitc_impl;

pub use ccxx_impl::{run_ccxx, run_ccxx_on};
pub use model::{
    half_shell, pair_force, water_reference, WaterParams, WaterState, INTRA_FLOPS, PAIR_FLOPS,
};
pub use splitc_impl::{run_splitc, run_splitc_on};

/// Which access strategy a run uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WaterVersion {
    Atomic,
    Prefetch,
}

impl WaterVersion {
    pub fn label(self) -> &'static str {
        match self {
            WaterVersion::Atomic => "water-atomic",
            WaterVersion::Prefetch => "water-prefetch",
        }
    }

    pub const ALL: [WaterVersion; 2] = [WaterVersion::Atomic, WaterVersion::Prefetch];
}

/// Final state and energy of a distributed run.
#[derive(Clone, Debug)]
pub struct WaterOutput {
    pub pos: Vec<f64>,
    pub energy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_ccxx::CcxxConfig;
    use mpmd_sim::CostModel;

    fn params(n: usize) -> WaterParams {
        WaterParams {
            n_mol: n,
            procs: 4,
            steps: 2,
            seed: 9,
            box_size: 8.0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    fn assert_matches_reference(p: &WaterParams, got: &WaterOutput) {
        let (want, energy) = water_reference(p);
        assert_eq!(got.pos.len(), want.pos.len());
        for (i, (a, b)) in got.pos.iter().zip(&want.pos).enumerate() {
            assert!(close(*a, *b), "pos[{i}]: {a} vs {b}");
        }
        assert!(
            close(got.energy, energy),
            "energy {} vs {energy}",
            got.energy
        );
    }

    #[test]
    fn splitc_atomic_matches_reference() {
        let p = params(16);
        let run = run_splitc(&p, WaterVersion::Atomic);
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn splitc_prefetch_matches_reference() {
        let p = params(16);
        let run = run_splitc(&p, WaterVersion::Prefetch);
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn ccxx_atomic_matches_reference() {
        let p = params(16);
        let run = run_ccxx(
            &p,
            WaterVersion::Atomic,
            CcxxConfig::tham(),
            CostModel::default(),
        );
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn ccxx_prefetch_matches_reference() {
        let p = params(16);
        let run = run_ccxx(
            &p,
            WaterVersion::Prefetch,
            CcxxConfig::tham(),
            CostModel::default(),
        );
        assert_matches_reference(&p, &run.output);
    }

    #[test]
    fn prefetch_is_faster_than_atomic() {
        let p = params(32);
        let atomic = run_splitc(&p, WaterVersion::Atomic).breakdown.elapsed;
        let prefetch = run_splitc(&p, WaterVersion::Prefetch).breakdown.elapsed;
        assert!(
            prefetch < atomic,
            "prefetch {prefetch} should beat atomic {atomic}"
        );
    }

    #[test]
    fn prefetch_reduces_remote_accesses_severalfold() {
        // The paper reports a ~10-fold reduction in remote accesses; the
        // exact factor depends on the pair-to-molecule ratio (it grows with
        // N — at 32 molecules each remote molecule appears in only a few of
        // this node's half-shells).
        let p = params(32);
        let atomic = run_splitc(&p, WaterVersion::Atomic)
            .breakdown
            .counts
            .msgs_sent;
        let prefetch = run_splitc(&p, WaterVersion::Prefetch)
            .breakdown
            .counts
            .msgs_sent;
        assert!(
            atomic as f64 / prefetch as f64 > 2.0,
            "atomic {atomic} msgs vs prefetch {prefetch}"
        );
    }

    #[test]
    fn ccxx_is_slower_than_splitc() {
        let p = params(32);
        let sc = run_splitc(&p, WaterVersion::Atomic).breakdown.elapsed;
        let cc = run_ccxx(
            &p,
            WaterVersion::Atomic,
            CcxxConfig::tham(),
            CostModel::default(),
        )
        .breakdown
        .elapsed;
        let ratio = cc as f64 / sc as f64;
        assert!(
            ratio > 1.2,
            "cc++/split-c water-atomic ratio = {ratio:.2} (paper: 2.6-5.6)"
        );
    }
}
