//! Drivers for the application experiments (Figures 5 and 6, the
//! CC++/Nexus comparison, and the discussion-claims analysis). The binaries
//! are thin wrappers over these so that integration tests can assert the
//! paper's shapes directly.

use crate::fmt::JsonReport;
use crate::runner::map_jobs;
use mpmd_apps::common::{AppBreakdown, Lang};
use mpmd_apps::em3d::{Em3dParams, Em3dVersion};
use mpmd_apps::lu::LuParams;
use mpmd_apps::water::{WaterParams, WaterVersion};
use mpmd_apps::{App, Runtime};
use mpmd_nexus::{nexus_config, nexus_sim_cost_model};
use mpmd_sim::{CostModel, FaultModel};

/// One measured cell of a breakdown figure.
#[derive(Clone, Debug)]
pub struct Cell {
    pub lang: Lang,
    pub label: String,
    pub breakdown: AppBreakdown,
    /// Work units for per-unit scaling (edges×steps, pairs×steps, 1 for LU).
    pub units: u64,
}

impl Cell {
    pub fn total_secs(&self) -> f64 {
        mpmd_sim::to_secs(self.breakdown.elapsed)
    }
}

/// The shared tail of every per-run report: elapsed time, the five cost
/// components keyed by [`mpmd_sim::Bucket::label`], and the raw counters.
fn breakdown_fields(b: &AppBreakdown) -> Vec<(&'static str, serde_json::Value)> {
    use serde::Serialize as _;
    let comps = b.components();
    let mut f = vec![
        ("elapsed_ns", b.elapsed.to_value()),
        (
            "components_ns",
            crate::fmt::bucket_object(|bk| comps[bk.index()].to_value()),
        ),
        ("counts", b.counts.to_value()),
    ];
    // Present only when the run had metrics on, so metrics-off reports are
    // byte-identical to pre-registry output.
    if let Some(m) = &b.metrics {
        f.push(("metrics", m.to_value()));
    }
    f
}

impl JsonReport for Cell {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde::Serialize as _;
        let mut f = vec![
            ("lang", self.lang.label().to_value()),
            ("label", self.label.to_value()),
            ("units", self.units.to_value()),
        ];
        f.extend(breakdown_fields(&self.breakdown));
        f
    }
}

/// Scale of an experiment run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes (800-node EM3D graph, 64/512 molecules, 512² LU).
    Paper,
    /// Reduced sizes for smoke tests and CI.
    Quick,
}

impl Scale {
    /// Split the `--quick` switch off a raw argument list. Binaries pass the
    /// remaining arguments through their other flag parsers and then reject
    /// leftovers via [`crate::fmt::reject_unknown_args`].
    pub fn take(args: Vec<String>) -> (Vec<String>, Scale) {
        let (rest, quick) = crate::fmt::take_switch(args, "--quick");
        (rest, if quick { Scale::Quick } else { Scale::Paper })
    }
}

fn em3d_params(scale: Scale, remote_frac: f64) -> Em3dParams {
    match scale {
        Scale::Paper => Em3dParams::paper(remote_frac),
        Scale::Quick => Em3dParams {
            graph_nodes: 160,
            degree: 8,
            procs: 4,
            steps: 2,
            remote_frac,
            seed: 42,
        },
    }
}

fn water_params(scale: Scale, n: usize) -> WaterParams {
    match scale {
        Scale::Paper => WaterParams::paper(n),
        Scale::Quick => WaterParams {
            n_mol: n.min(32),
            procs: 4,
            steps: 1,
            seed: 1997,
            box_size: 8.0,
        },
    }
}

fn lu_params(scale: Scale) -> LuParams {
    match scale {
        Scale::Paper => LuParams::paper(),
        Scale::Quick => LuParams {
            n: 64,
            block: 8,
            procs: 4,
            seed: 101,
        },
    }
}

/// Water's molecule count in the one-configuration suites.
fn suite_molecules(scale: Scale) -> usize {
    if scale == Scale::Paper {
        64
    } else {
        16
    }
}

/// Every application kernel at one representative configuration: EM3D's
/// three versions at remote fraction 1.0, Water's two at the scale's
/// molecule count, and LU.
fn suite(scale: Scale) -> Vec<App> {
    let em3d = Em3dVersion::ALL.map(|v| App::Em3d(em3d_params(scale, 1.0), v));
    let water =
        WaterVersion::ALL.map(|v| App::Water(water_params(scale, suite_molecules(scale)), v));
    em3d.into_iter()
        .chain(water)
        .chain([App::Lu(lu_params(scale))])
        .collect()
}

/// Each application on Split-C and on CC++/ThAM, under `cost`, in that
/// order.
fn in_both_languages(apps: Vec<App>, cost: &CostModel) -> Vec<(App, Runtime, CostModel)> {
    apps.into_iter()
        .flat_map(|app| {
            [
                (app.clone(), Runtime::SPLITC, cost.clone()),
                (app, Runtime::tham(), cost.clone()),
            ]
        })
        .collect()
}

/// Run each (application, runtime, cost model) cell as one work unit on up
/// to `jobs` threads; the cells come back in list order, so output is
/// identical for any `jobs`.
fn run_cells(list: Vec<(App, Runtime, CostModel)>, jobs: usize) -> Vec<Cell> {
    map_jobs(list, jobs, |(app, rt, cost)| Cell {
        lang: rt.lang(),
        label: app.label(rt.lang()).to_string(),
        breakdown: app.run(&rt, cost).breakdown,
        units: app.units(),
    })
}

/// Consecutive (Split-C, CC++) cells of [`in_both_languages`], paired.
fn pairs(cells: Vec<Cell>) -> impl Iterator<Item = (Cell, Cell)> {
    let mut cells = cells.into_iter();
    std::iter::from_fn(move || Some((cells.next()?, cells.next().expect("missing cc++ cell"))))
}

/// Figure 5: EM3D per-edge breakdowns for each version × remote fraction ×
/// language, Split-C and CC++/ThAM.
pub fn run_fig5(scale: Scale, fracs: &[f64], jobs: usize) -> Vec<(Em3dVersion, f64, Cell, Cell)> {
    let configs: Vec<(Em3dVersion, f64)> = Em3dVersion::ALL
        .iter()
        .flat_map(|&v| fracs.iter().map(move |&f| (v, f)))
        .collect();
    let apps = configs
        .iter()
        .map(|&(v, f)| App::Em3d(em3d_params(scale, f), v))
        .collect();
    let cells = run_cells(in_both_languages(apps, &CostModel::default()), jobs);
    configs
        .into_iter()
        .zip(pairs(cells))
        .map(|((v, f), (sc, cc))| (v, f, sc, cc))
        .collect()
}

/// Figure 6, Water half: (version, molecules, Split-C, CC++) cells.
pub fn run_fig6_water(
    scale: Scale,
    sizes: &[usize],
    jobs: usize,
) -> Vec<(WaterVersion, usize, Cell, Cell)> {
    let configs: Vec<(WaterVersion, usize)> = WaterVersion::ALL
        .iter()
        .flat_map(|&v| sizes.iter().map(move |&n| (v, n)))
        .collect();
    let apps = configs
        .iter()
        .map(|&(v, n)| App::Water(water_params(scale, n), v))
        .collect();
    let cells = run_cells(in_both_languages(apps, &CostModel::default()), jobs);
    configs
        .into_iter()
        .zip(pairs(cells))
        .map(|((v, n), (sc, cc))| (v, n, sc, cc))
        .collect()
}

/// Figure 6, LU half. The two language runs execute concurrently when
/// `jobs > 1`.
pub fn run_fig6_lu(scale: Scale, jobs: usize) -> (Cell, Cell) {
    let cells = run_cells(
        in_both_languages(vec![App::Lu(lu_params(scale))], &CostModel::default()),
        jobs,
    );
    pairs(cells).next().expect("missing split-c cell")
}

/// The profiling suite: every application kernel at one representative
/// configuration (EM3D's three versions at remote fraction 1.0, Water's two
/// at the scale's molecule count, and LU), Split-C and CC++/ThAM, run under
/// an explicit cost model. `msgprofile` passes
/// `CostModel::default().with_metrics()` so every cell carries its
/// latency histograms and src→dst traffic matrix.
pub fn run_profile_suite(scale: Scale, cost: CostModel, jobs: usize) -> Vec<Cell> {
    run_cells(in_both_languages(suite(scale), &cost), jobs)
}

/// CC++/Nexus vs CC++/ThAM ratios per application (the paper's §6
/// "Comparison with CC++/Nexus": 5-6× compute-bound, 10-35× comm-bound).
pub struct NexusComparison {
    pub name: String,
    pub tham_secs: f64,
    pub nexus_secs: f64,
}

impl NexusComparison {
    pub fn ratio(&self) -> f64 {
        self.nexus_secs / self.tham_secs
    }
}

impl JsonReport for NexusComparison {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde::Serialize as _;
        vec![
            ("application", self.name.to_value()),
            ("tham_secs", self.tham_secs.to_value()),
            ("nexus_secs", self.nexus_secs.to_value()),
            ("speedup", self.ratio().to_value()),
        ]
    }
}

/// Run every application of the profiling suite under ThAM and under the
/// Nexus baseline, reassembled in the fixed application order.
pub fn run_nexus_cmp(scale: Scale, jobs: usize) -> Vec<NexusComparison> {
    let apps = suite(scale);
    let names: Vec<String> = apps
        .iter()
        .map(|app| match app {
            App::Em3d(_, v) => format!("{} (100% remote)", v.label()),
            App::Water(p, v) => format!("{} ({} molecules)", v.label(), p.n_mol),
            App::Lu(p) => format!("cc-lu ({}x{})", p.n, p.n),
        })
        .collect();
    let list = apps
        .into_iter()
        .flat_map(|app| {
            [
                (app.clone(), Runtime::tham(), CostModel::default()),
                (
                    app,
                    Runtime::Ccxx(Box::new(nexus_config())),
                    nexus_sim_cost_model(),
                ),
            ]
        })
        .collect();
    names
        .into_iter()
        .zip(pairs(run_cells(list, jobs)))
        .map(|(name, (tham, nex))| NexusComparison {
            name,
            tham_secs: tham.total_secs(),
            nexus_secs: nex.total_secs(),
        })
        .collect()
}

/// One cell of the fault sweep: application × runtime × fault level.
pub struct FaultCell {
    pub app: &'static str,
    pub lang: Lang,
    /// Drop rate of the wire fault model, or `None` for the baseline run
    /// with the fault model off (unsequenced fast path, no reliability
    /// protocol).
    pub drop: Option<f64>,
    pub breakdown: AppBreakdown,
    /// Whether the application results are bitwise identical to the
    /// fault-free baseline of the same (application, runtime) pair. The
    /// reliable-delivery layer guarantees this; the sweep verifies it.
    pub matches_baseline: bool,
}

/// JSON form for `faults --json`. Deliberately contains no application
/// floating-point values — only virtual times, counters, the drop rate,
/// and the baseline-match verdict — so same-seed runs are byte-identical.
impl JsonReport for FaultCell {
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde::Serialize as _;
        let mut f = vec![
            ("app", self.app.to_value()),
            ("lang", self.lang.label().to_value()),
            (
                "drop_rate",
                match self.drop {
                    Some(d) => d.to_value(),
                    None => serde_json::Value::Null,
                },
            ),
            ("matches_baseline", self.matches_baseline.to_value()),
        ];
        f.extend(breakdown_fields(&self.breakdown));
        f
    }
}

/// The fault model used by the sweep at a given drop rate: duplicates at
/// half the drop rate and reordering at the drop rate, so every fault class
/// is exercised together.
pub fn sweep_faults(seed: u64, drop: f64) -> FaultModel {
    FaultModel::uniform(seed, drop, drop / 2.0, drop)
}

/// Fault-injection sweep: one communication-heavy version of each paper
/// application (EM3D ghost: split-phase gets each half-step; Water atomic:
/// remote reads and atomic force accumulation; LU: bulk stores, prefetches
/// and barriers) × runtime × fault level, with the baseline (fault model
/// off) first in each group. Each simulation is an independent work unit
/// fanned across `jobs` threads in deterministic config order, so output is
/// identical for any `jobs`.
pub fn run_faults(scale: Scale, drops: &[f64], seed: u64, jobs: usize) -> Vec<FaultCell> {
    let apps = [
        (
            "em3d-ghost",
            App::Em3d(em3d_params(scale, 1.0), Em3dVersion::Ghost),
        ),
        (
            "water-atomic",
            App::Water(
                water_params(scale, suite_molecules(scale)),
                WaterVersion::Atomic,
            ),
        ),
        ("lu", App::Lu(lu_params(scale))),
    ];
    let levels: Vec<Option<f64>> = std::iter::once(None)
        .chain(drops.iter().copied().map(Some))
        .collect();
    let mut list = Vec::new();
    let mut groups = Vec::new();
    for (label, app) in apps {
        for rt in [Runtime::SPLITC, Runtime::tham()] {
            groups.push((label, rt.lang()));
            for &level in &levels {
                let cost = match level {
                    None => CostModel::default(),
                    Some(d) => CostModel::default().with_faults(sweep_faults(seed, d)),
                };
                list.push((app.clone(), rt.clone(), cost));
            }
        }
    }
    let mut results = map_jobs(list, jobs, |(app, rt, cost)| {
        let run = app.run(&rt, cost);
        (run.breakdown, run.output.fingerprint())
    })
    .into_iter();
    let mut out = Vec::new();
    for (app, lang) in groups {
        let mut base_fp = None;
        for &drop in &levels {
            let (breakdown, fp) = results.next().expect("missing fault run");
            out.push(FaultCell {
                app,
                lang,
                drop,
                breakdown,
                matches_baseline: *base_fp.get_or_insert(fp) == fp,
            });
        }
    }
    out
}

/// Render one breakdown cell as a table row (seconds + component shares).
pub fn breakdown_row(name: &str, cell: &Cell, normal: f64) -> Vec<String> {
    let b = &cell.breakdown;
    let parts = b.components();
    let busy = b.busy_total().max(1) as f64;
    vec![
        name.to_string(),
        crate::fmt::secs(cell.total_secs()),
        format!("{:.2}", mpmd_sim::to_secs(b.elapsed) / normal),
        format!("{:.0}%", parts[0] as f64 / busy * 100.0),
        format!("{:.0}%", parts[1] as f64 / busy * 100.0),
        format!("{:.0}%", parts[2] as f64 / busy * 100.0),
        format!("{:.0}%", parts[3] as f64 / busy * 100.0),
        format!("{:.0}%", parts[4] as f64 / busy * 100.0),
    ]
}

/// Column headers matching [`breakdown_row`].
pub const BREAKDOWN_HEADERS: [&str; 8] = [
    "run", "secs", "vs sc", "cpu", "net", "mgmt", "sync", "runtime",
];

/// Render a Split-C/CC++ pair as the paper's normalized stacked bars: the
/// Split-C bar is `base_len` characters; the CC++ bar is scaled by the
/// ratio of their elapsed times.
pub fn bar_pair(name: &str, sc: &Cell, cc: &Cell, base_len: usize) -> String {
    let ratio = cc.breakdown.elapsed as f64 / sc.breakdown.elapsed.max(1) as f64;
    let cc_len = ((base_len as f64) * ratio).round() as usize;
    let comp = |c: &Cell| {
        let p = c.breakdown.components();
        [p[0], p[1], p[2], p[3], p[4]]
    };
    format!(
        "{:>26} |{}\n{:>26} |{}  ({ratio:.2}x)",
        format!("split-c {name}"),
        crate::fmt::stacked_bar(comp(sc), base_len),
        format!("cc++ {name}"),
        crate::fmt::stacked_bar(comp(cc), cc_len),
    )
}

#[cfg(test)]
mod golden_tests {
    use super::*;
    use crate::micro::{Measured, Table4Row};

    fn golden_breakdown() -> AppBreakdown {
        let counts = mpmd_sim::Stats {
            bucket_ns: [11_111, 22_222, 3_333, 444, 55],
            msgs_sent: 100,
            msgs_received: 100,
            bytes_sent: 4_800,
            short_msgs: 80,
            bulk_msgs: 20,
            polls: 40,
            handlers_run: 90,
            ..Default::default()
        };
        AppBreakdown {
            elapsed: 123_456_789,
            cpu: 11_111,
            net: 22_222,
            thread_mgmt: 3_333,
            thread_sync: 444,
            runtime: 55,
            counts,
            metrics: None,
        }
    }

    fn golden_measured() -> Measured {
        Measured {
            total_us: 67.5,
            am_us: 55.0,
            threads_us: 4.25,
            yields: 2.0,
            creates: 1.0,
            syncs: 3.0,
            runtime_us: 8.25,
            bucket_us: [1.5, 55.0, 2.0, 2.25, 8.25],
        }
    }

    fn golden_value() -> serde_json::Value {
        let cell = Cell {
            lang: Lang::SplitC,
            label: "ghost".to_string(),
            breakdown: golden_breakdown(),
            units: 2_560,
        };
        let fault_cell = FaultCell {
            app: "em3d-ghost",
            lang: Lang::Ccxx,
            drop: Some(0.1),
            breakdown: golden_breakdown(),
            matches_baseline: true,
        };
        let row = Table4Row {
            name: "0-Word",
            cc: golden_measured(),
            sc: Some(golden_measured()),
            paper_cc: (77.0, 55.0, 12.0, 10.0),
            paper_sc: Some((56.0, 53.0, 3.0)),
        };
        let mut m = serde_json::Map::new();
        m.insert("cell".to_string(), cell.to_json());
        m.insert("fault_cell".to_string(), fault_cell.to_json());
        m.insert("measured".to_string(), golden_measured().to_json());
        m.insert("table4_row".to_string(), row.to_json());
        serde_json::Value::Object(m)
    }

    /// The `--json` serializers must produce byte-identical output across
    /// refactors. The golden file was captured from the hand-rolled
    /// per-type `to_json` implementations; regenerate (only for a
    /// deliberate format change) with `UPDATE_GOLDEN=1 cargo test`.
    #[test]
    fn json_reports_match_golden() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/testdata/json_report_golden.json"
        );
        let mut text = serde_json::to_string_pretty(&golden_value()).expect("serialize golden");
        text.push('\n');
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata")).unwrap();
            std::fs::write(path, &text).unwrap();
        }
        let want = std::fs::read_to_string(path)
            .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test");
        assert_eq!(
            text, want,
            "JSON report serialization drifted from the golden file"
        );
    }
}
