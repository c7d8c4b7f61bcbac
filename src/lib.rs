//! # mpmd-repro
//!
//! A full reproduction of *"Evaluating the Performance Limitations of MPMD
//! Communication"* (Chang, Czajkowski, von Eicken, Kesselman; SC 1997) as a
//! Rust workspace. This facade crate re-exports the component crates; see
//! `README.md` for the architecture and `EXPERIMENTS.md` for paper-vs-
//! measured results.

pub use mpmd_am as am;
pub use mpmd_apps as apps;
pub use mpmd_ccxx as ccxx;
pub use mpmd_nexus as nexus;
pub use mpmd_sim as sim;
pub use mpmd_splitc as splitc;
pub use mpmd_threads as threads;

/// The names most programs need, importable in one line:
///
/// ```
/// use mpmd_repro::prelude::*;
///
/// Sim::new(2).run(|ctx| {
///     am::init(&ctx, NetProfile::sp_am_splitc());
///     am::register(&ctx, 100, |_ctx, _msg| {});
///     am::register_barrier_handlers(&ctx);
///     am::barrier(&ctx);
///     if ctx.node() == 0 {
///         endpoint(&ctx).to(1).handler(100).args([7, 0, 0, 0]).send();
///     }
///     am::barrier(&ctx);
/// });
/// ```
pub mod prelude {
    pub use mpmd_am::{self as am, endpoint, CoalesceConfig, Endpoint, NetProfile, SendBuilder};
    pub use mpmd_apps::common::{AppBreakdown, AppRun};
    pub use mpmd_apps::em3d::{Em3dParams, Em3dValues, Em3dVersion};
    pub use mpmd_apps::lu::{LuOutput, LuParams};
    pub use mpmd_apps::water::{WaterOutput, WaterParams, WaterVersion};
    pub use mpmd_ccxx::CcxxConfig;
    pub use mpmd_sim::{
        fold_stacks, phase_profile, CoalesceCosts, CostModel, Ctx, Fabric, FaultModel, Histogram,
        MetricsRegistry, Sim, Stats, Time,
    };
}

/// README.md's code blocks, built and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
