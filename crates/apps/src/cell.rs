//! One application cell: an application at its parameters and version, run
//! on one language runtime. Figures 5 and 6, the profiling suite, the Nexus
//! comparison, the fault sweep and the ablations are lists of cells, and
//! [`App::run_on`] is the one match over application × runtime, on either
//! fabric.

use crate::common::{run_collect, AppRun, Lang};
use crate::em3d::{self, Em3dParams, Em3dValues, Em3dVersion};
use crate::lu::{self, LuOutput, LuParams};
use crate::water::{self, WaterOutput, WaterParams, WaterVersion};
use mpmd_ccxx::CcxxConfig;
use mpmd_fabric::Fabric;
use mpmd_sim::CostModel;
use mpmd_splitc::CoalesceConfig;

/// An application at its parameters and version.
#[derive(Clone, Debug)]
pub enum App {
    Em3d(Em3dParams, Em3dVersion),
    Water(WaterParams, WaterVersion),
    Lu(LuParams),
}

/// The language runtime a cell runs on.
#[derive(Clone, Debug)]
pub enum Runtime {
    /// Split-C, with optional per-destination message coalescing in the AM
    /// substrate (`None` is the paper's runtime).
    SplitC { coalescing: Option<CoalesceConfig> },
    /// CC++, ThAM ([`CcxxConfig::tham`]) or any other configuration
    /// (boxed: it is ten times the size of the Split-C variant).
    Ccxx(Box<CcxxConfig>),
}

impl Runtime {
    /// The paper's Split-C.
    pub const SPLITC: Runtime = Runtime::SplitC { coalescing: None };

    /// The paper's CC++/ThAM.
    pub fn tham() -> Runtime {
        Runtime::Ccxx(Box::new(CcxxConfig::tham()))
    }

    pub fn lang(&self) -> Lang {
        match self {
            Runtime::SplitC { .. } => Lang::SplitC,
            Runtime::Ccxx(_) => Lang::Ccxx,
        }
    }
}

/// What a cell computes, for checking against the sequential references.
#[derive(Clone, Debug)]
pub enum Output {
    Em3d(Em3dValues),
    Water(WaterOutput),
    Lu(LuOutput),
}

impl Output {
    /// Every result value in a fixed order: EM3D's E then H field, Water's
    /// positions then its energy, LU's factored matrix.
    pub fn values(&self) -> Vec<f64> {
        match self {
            Output::Em3d(v) => [&v.e[..], &v.h].concat(),
            Output::Water(w) => [&w.pos[..], &[w.energy]].concat(),
            Output::Lu(l) => l.factored.clone(),
        }
    }

    /// FNV-1a over the bit patterns of [`Output::values`]: two runs'
    /// fingerprints are equal when their results are bitwise identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in self.values() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

impl App {
    pub fn procs(&self) -> usize {
        match self {
            App::Em3d(p, _) => p.procs,
            App::Water(p, _) => p.procs,
            App::Lu(p) => p.procs,
        }
    }

    /// The paper's name for the cell on a runtime of `lang`.
    pub fn label(&self, lang: Lang) -> &'static str {
        match (self, lang) {
            (App::Em3d(_, v), _) => v.label(),
            (App::Water(_, v), _) => v.label(),
            (App::Lu(_), Lang::SplitC) => "sc-lu",
            (App::Lu(_), Lang::Ccxx) => "cc-lu",
        }
    }

    /// Work units Figures 5 and 6 divide by: edges × steps for EM3D (every
    /// E node has `degree` edges), molecule pairs × steps for Water, 1 for
    /// LU.
    pub fn units(&self) -> u64 {
        (match self {
            App::Em3d(p, _) => p.graph_nodes / 2 * p.degree * p.steps,
            App::Water(p, _) => p.n_mol * (p.n_mol - 1) / 2 * p.steps,
            App::Lu(_) => 1,
        }) as u64
    }

    /// The per-node program of the cell on `rt`, on any fabric: node 0
    /// returns the measured run.
    pub fn run_on<F: Fabric>(&self, ctx: &F, rt: &Runtime) -> Option<AppRun<Output>> {
        Some(match (self, rt) {
            (App::Em3d(p, v), Runtime::SplitC { coalescing }) => {
                em3d::run_splitc_on(ctx, p, *v, coalescing.clone())?.map(Output::Em3d)
            }
            (App::Em3d(p, v), Runtime::Ccxx(c)) => {
                em3d::run_ccxx_on(ctx, p, *v, CcxxConfig::clone(c))?.map(Output::Em3d)
            }
            (App::Water(p, v), Runtime::SplitC { coalescing }) => {
                water::run_splitc_on(ctx, p, *v, coalescing.clone())?.map(Output::Water)
            }
            (App::Water(p, v), Runtime::Ccxx(c)) => {
                water::run_ccxx_on(ctx, p, *v, CcxxConfig::clone(c))?.map(Output::Water)
            }
            (App::Lu(p), Runtime::SplitC { coalescing }) => {
                lu::run_splitc_on(ctx, p, coalescing.clone())?.map(Output::Lu)
            }
            (App::Lu(p), Runtime::Ccxx(c)) => {
                lu::run_ccxx_on(ctx, p, CcxxConfig::clone(c))?.map(Output::Lu)
            }
        })
    }

    /// [`App::run_on`] on a fresh simulated machine under `cost`.
    pub fn run(&self, rt: &Runtime, cost: CostModel) -> AppRun<Output> {
        let (app, rt) = (self.clone(), rt.clone());
        run_collect(self.procs(), cost, move |ctx| app.run_on(ctx, &rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em3d::Graph;
    use crate::water::half_shell;

    /// The per-unit normalisation counts what the programs traverse: the
    /// generated graph's E-side edges, and each molecule's half-shell.
    #[test]
    fn units_count_the_edges_and_pairs_the_programs_traverse() {
        let quick = Em3dParams {
            graph_nodes: 160,
            degree: 8,
            procs: 4,
            steps: 2,
            remote_frac: 1.0,
            seed: 42,
        };
        for p in [Em3dParams::paper(0.1), Em3dParams::paper(1.0), quick] {
            let edges: usize = Graph::generate(&p).e_adj.iter().map(Vec::len).sum();
            let app = App::Em3d(p.clone(), Em3dVersion::Base);
            assert_eq!(app.units(), (edges * p.steps) as u64, "{p:?}");
        }
        for n in [8, 15, 16, 17, 32, 64, 65, 512] {
            let p = WaterParams {
                steps: 3,
                ..WaterParams::paper(n)
            };
            let pairs: usize = (0..n).map(|i| half_shell(i, n).len()).sum();
            let app = App::Water(p.clone(), WaterVersion::Atomic);
            assert_eq!(app.units(), (pairs * p.steps) as u64, "n_mol {n}");
        }
        assert_eq!(App::Lu(LuParams::paper()).units(), 1);
    }
}
