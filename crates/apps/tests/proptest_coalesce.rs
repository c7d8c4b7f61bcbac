//! Property tests: per-destination message coalescing is invisible to
//! application results. For any aggregation bound — message cap, byte cap,
//! linger, with or without injected wire faults — the Split-C applications
//! reproduce their coalescing-off outputs bitwise.

use mpmd_apps::em3d::{Em3dParams, Em3dVersion};
use mpmd_apps::lu::LuParams;
use mpmd_apps::water::{WaterParams, WaterVersion};
use mpmd_apps::{App, Output, Runtime};
use mpmd_sim::{CostModel, FaultModel};
use mpmd_splitc::CoalesceConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn quick_em3d() -> App {
    let p = Em3dParams {
        graph_nodes: 160,
        degree: 8,
        procs: 4,
        steps: 2,
        remote_frac: 1.0,
        seed: 42,
    };
    App::Em3d(p, Em3dVersion::Ghost)
}

fn quick_water() -> App {
    let p = WaterParams {
        n_mol: 16,
        procs: 4,
        steps: 1,
        seed: 1997,
        box_size: 8.0,
    };
    App::Water(p, WaterVersion::Atomic)
}

fn quick_lu() -> App {
    App::Lu(LuParams {
        n: 64,
        block: 8,
        procs: 4,
        seed: 101,
    })
}

/// Bit patterns of a run's results: equality here is bitwise equality,
/// immune to `-0.0 == 0.0` and the like.
fn bits(out: &Output) -> Vec<u64> {
    out.values().iter().map(|v| v.to_bits()).collect()
}

/// The bits of `app`'s Split-C results under `cost` and `coalescing`.
fn splitc_bits(app: App, cost: CostModel, coalescing: Option<CoalesceConfig>) -> Vec<u64> {
    bits(&app.run(&Runtime::SplitC { coalescing }, cost).output)
}

fn cost_for(faulty: bool) -> CostModel {
    if faulty {
        CostModel::default().with_faults(FaultModel::uniform(7, 0.1, 0.05, 0.1))
    } else {
        CostModel::default()
    }
}

/// Arbitrary-but-valid aggregation bounds, spanning degenerate (one message
/// per frame, zero linger) through generous.
fn cfg_strategy() -> impl Strategy<Value = CoalesceConfig> {
    (1usize..=12, 1usize..=8, 0u64..=30).prop_map(|(msgs, frames, linger_us)| CoalesceConfig {
        max_msgs: msgs,
        max_bytes: frames * mpmd_am::SUB_WIRE_BYTES,
        max_linger: linger_us * 1_000,
    })
}

// Coalescing-off baselines, computed once: the reliable-delivery layer
// already guarantees faulty runs match the fault-free baseline, so one
// reference per application suffices.
static EM3D_OFF: OnceLock<Vec<u64>> = OnceLock::new();
static WATER_OFF: OnceLock<Vec<u64>> = OnceLock::new();
static LU_OFF: OnceLock<Vec<u64>> = OnceLock::new();

fn off(slot: &'static OnceLock<Vec<u64>>, app: fn() -> App) -> &'static Vec<u64> {
    slot.get_or_init(|| splitc_bits(app(), CostModel::default(), None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn em3d_results_are_coalescing_invariant(cfg in cfg_strategy(), faulty in any::<bool>()) {
        let got = splitc_bits(quick_em3d(), cost_for(faulty), Some(cfg));
        prop_assert_eq!(&got, off(&EM3D_OFF, quick_em3d));
    }

    #[test]
    fn water_results_are_coalescing_invariant(cfg in cfg_strategy(), faulty in any::<bool>()) {
        let got = splitc_bits(quick_water(), cost_for(faulty), Some(cfg));
        prop_assert_eq!(&got, off(&WATER_OFF, quick_water));
    }

    #[test]
    fn lu_results_are_coalescing_invariant(cfg in cfg_strategy(), faulty in any::<bool>()) {
        let got = splitc_bits(quick_lu(), cost_for(faulty), Some(cfg));
        prop_assert_eq!(&got, off(&LU_OFF, quick_lu));
    }
}
