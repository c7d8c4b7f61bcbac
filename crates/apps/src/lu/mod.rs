//! Blocked LU decomposition (SPLASH), 2D block-cyclic over the processors.
//!
//! "The base Split-C version (sc-lu) uses one-way stores for explicitly
//! transferring pivot blocks and prefetches all blocks before beginning the
//! third sub-step. In the CC++ version (cc-lu), the one-way stores and
//! prefetches are replaced by RMIs."

mod ccxx_impl;
mod matrix;
mod splitc_impl;

pub use ccxx_impl::{run_ccxx, run_ccxx_on};
pub use matrix::{
    block_mul_sub, extract_block, factor_block, factor_flops, generate_matrix, grid, insert_block,
    lu_blocked_reference, reconstruction_error, solve_flops, solve_lower, solve_upper,
    update_flops, BlockMap, LuParams,
};
pub use splitc_impl::{run_splitc, run_splitc_on};

/// The factored matrix (L below the unit diagonal, U on and above it).
#[derive(Clone, Debug)]
pub struct LuOutput {
    pub factored: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_ccxx::CcxxConfig;
    use mpmd_sim::CostModel;

    fn small() -> LuParams {
        LuParams {
            n: 32,
            block: 8,
            procs: 4,
            seed: 13,
        }
    }

    #[test]
    fn splitc_lu_matches_blocked_reference_exactly() {
        let p = small();
        let run = run_splitc(&p);
        let want = lu_blocked_reference(&p);
        assert_eq!(run.output.factored, want);
    }

    #[test]
    fn ccxx_lu_matches_blocked_reference_exactly() {
        let p = small();
        let run = run_ccxx(&p, CcxxConfig::tham(), CostModel::default());
        let want = lu_blocked_reference(&p);
        assert_eq!(run.output.factored, want);
    }

    #[test]
    fn splitc_lu_reconstructs_the_original() {
        let p = small();
        let original = generate_matrix(&p);
        let run = run_splitc(&p);
        let err = reconstruction_error(&original, &run.output.factored, p.n);
        assert!(err < 1e-9, "L·U reconstruction error {err}");
    }

    #[test]
    fn lu_works_on_odd_grids() {
        let p = LuParams {
            n: 24,
            block: 4,
            procs: 2,
            seed: 4,
        };
        let run = run_splitc(&p);
        assert_eq!(run.output.factored, lu_blocked_reference(&p));
    }

    #[test]
    fn cc_lu_is_slower_than_sc_lu() {
        let p = LuParams {
            n: 48,
            block: 8,
            procs: 4,
            seed: 8,
        };
        let sc = run_splitc(&p).breakdown.elapsed;
        let cc = run_ccxx(&p, CcxxConfig::tham(), CostModel::default())
            .breakdown
            .elapsed;
        let ratio = cc as f64 / sc as f64;
        assert!(
            ratio > 1.1,
            "cc-lu/sc-lu ratio = {ratio:.2} (paper: 3.6 at full scale)"
        );
    }
}
