//! Determinism of the metrics registry: the serialized histograms and
//! traffic matrices must be byte-identical across worker counts and
//! repeated seeded runs — with and without fault injection — because every
//! sample is integer virtual-time recorded on the kernel in simulation
//! order.

use mpmd_am as am;
use mpmd_apps::em3d::{Em3dParams, Em3dVersion};
use mpmd_apps::water::{WaterParams, WaterVersion};
use mpmd_apps::{App, Runtime};
use mpmd_bench::runner::{run_jobs, Unit};
use mpmd_sim::{Bucket, CostModel, Fabric, FaultModel, MetricsRegistry, Payload, Sim};
use mpmd_threads as thr;
use std::path::PathBuf;
use std::process::Command;

fn registry_json(m: &MetricsRegistry) -> String {
    serde_json::to_string(&serde::Serialize::to_value(m)).unwrap()
}

/// A 2-node short-message ping-pong: its final report's registry, as the
/// run ended, rather than an application's measured region.
fn ping_pong_final(cost: CostModel) -> Option<MetricsRegistry> {
    let short = || Payload::Short {
        handler: 1,
        args: [0; 4],
        token: None,
    };
    let report = Sim::new(2).cost_model(cost).run(move |ctx| {
        let peer = 1 - ctx.node();
        for _ in 0..100 {
            let t0 = ctx.metric_now();
            if ctx.node() == 0 {
                ctx.send_msg(peer, 8, 1_000, short());
            }
            ctx.park_for_inbox();
            ctx.try_recv().unwrap();
            if ctx.node() == 1 {
                ctx.send_msg(peer, 8, 1_000, short());
            }
            if let Some(t0) = t0 {
                ctx.metric_observe_since("test.wait_ns", t0);
            }
        }
    });
    report.metrics
}

/// Run a small cross-runtime suite under `cost` on `jobs` workers and
/// serialize every run's registry to one JSON blob.
fn suite_metrics_json(cost: CostModel, jobs: usize) -> String {
    let em3d_p = Em3dParams {
        graph_nodes: 160,
        degree: 8,
        procs: 4,
        steps: 2,
        remote_frac: 1.0,
        seed: 42,
    };
    let water_p = WaterParams {
        n_mol: 16,
        procs: 4,
        steps: 1,
        seed: 1997,
        box_size: 8.0,
    };
    let em3d = App::Em3d(em3d_p, Em3dVersion::Ghost);
    let cells = [
        (em3d.clone(), Runtime::SPLITC),
        (em3d, Runtime::tham()),
        (App::Water(water_p, WaterVersion::Atomic), Runtime::SPLITC),
    ];
    let mut units: Vec<Unit<Option<MetricsRegistry>>> = Vec::new();
    for (app, rt) in cells {
        let cost = cost.clone();
        units.push(Box::new(move || app.run(&rt, cost).breakdown.metrics));
    }
    units.push(Box::new(move || ping_pong_final(cost)));
    run_jobs(units, jobs)
        .iter()
        .map(|m| registry_json(m.as_ref().expect("metrics were enabled")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn metrics_json_is_jobs_invariant_and_repeatable() {
    let cost = || CostModel::default().with_metrics();
    let j1 = suite_metrics_json(cost(), 1);
    let j8 = suite_metrics_json(cost(), 8);
    assert_eq!(j1, j8, "metrics JSON differs between -j1 and -j8");
    let again = suite_metrics_json(cost(), 8);
    assert_eq!(j8, again, "metrics JSON differs across repeated runs");
    assert!(j1.contains("sc.split_op_ns"), "{j1}");
    assert!(j1.contains("test.wait_ns"), "no final report: {j1}");
}

/// Names of every histogram any node of `m` recorded.
fn hist_names(m: &MetricsRegistry) -> Vec<&'static str> {
    m.global().hists.into_keys().collect()
}

/// A registry holds what the layers measure — frames per poll, RMI and
/// split-phase latencies — and no histogram of a cost-model constant: the
/// threads package's operations are counted and charged in `Stats` alone.
#[test]
fn metrics_record_only_what_they_measure() {
    const K: u64 = 5;
    const H_NOP: am::HandlerId = 100;
    let report = Sim::new(2)
        .cost_model(CostModel::default().with_metrics())
        .run(|ctx| {
            am::init(&ctx, am::NetProfile::sp_am_splitc());
            am::register(&ctx, H_NOP, |_, _| {});
            if ctx.node() == 0 {
                let ep = am::endpoint(&ctx);
                for i in 0..K {
                    ep.to(1).handler(H_NOP).args([i, 0, 0, 0]).send();
                }
                return;
            }
            // Past every arrival: the node's one poll finds all K queued.
            ctx.charge(Bucket::Cpu, mpmd_sim::ms(1.0));
            assert_eq!(am::poll(&ctx), K as usize);
            let m = thr::Mutex::new(0u32);
            *m.lock(&ctx) += 1;
            thr::spawn(&ctx, "child", |_| {}).join(&ctx);
        });
    let s = report.total_stats();
    assert_eq!((s.thread_creates, s.sync_ops), (1, 2));
    let m = report.metrics.as_ref().expect("metrics were enabled");
    let depth = &m.nodes[1].hists["am.inbox_depth"];
    assert_eq!((depth.count, depth.min, depth.max), (1, K, K));
    assert!(
        hist_names(m).iter().all(|n| !n.starts_with("thr.")),
        "{:?}",
        hist_names(m)
    );

    let em3d_p = Em3dParams {
        graph_nodes: 160,
        degree: 8,
        procs: 4,
        steps: 2,
        remote_frac: 0.5,
        seed: 42,
    };
    let water_p = WaterParams {
        n_mol: 16,
        procs: 4,
        steps: 1,
        seed: 1997,
        box_size: 8.0,
    };
    let cost = CostModel::default().with_metrics();
    let water = App::Water(water_p, WaterVersion::Atomic);
    let run = |app: &App, rt| app.run(&rt, cost.clone()).breakdown;
    let runs = [
        (
            run(&App::Em3d(em3d_p, Em3dVersion::Ghost), Runtime::SPLITC),
            &["sc.split_op_ns"][..],
        ),
        (
            run(&water, Runtime::SPLITC),
            &["sc.atomic_ns", "sc.sync_read_ns"],
        ),
        (run(&water, Runtime::tham()), &["ccxx.rmi_rtt_ns"]),
    ];
    for (b, latencies) in &runs {
        let m = b.metrics.as_ref().expect("metrics were enabled");
        for &name in ["am.inbox_depth"].iter().chain(*latencies) {
            assert!(m.hist(name).is_some_and(|h| h.count > 0), "no {name}");
        }
        let names = hist_names(m);
        assert!(names.iter().all(|n| !n.starts_with("thr.")), "{names:?}");
    }
    assert!(runs[2].0.counts.sync_ops > 0, "the CC++ run used no locks");
}

/// Full-run determinism over the pooled/sharded fast path: the breakdown
/// (virtual times + raw counters) and registry JSON together must be
/// byte-identical across worker counts and repeated runs of the same seed,
/// for several seeds.
#[test]
fn report_and_registry_json_invariant_across_seeds_and_jobs() {
    let run_json = |seed: u64, jobs: usize| -> String {
        let p = Em3dParams {
            graph_nodes: 160,
            degree: 8,
            procs: 4,
            steps: 2,
            remote_frac: 0.5,
            seed,
        };
        let cost = CostModel::default().with_metrics();
        let units: Vec<Unit<String>> = vec![Box::new(move || {
            let b = App::Em3d(p.clone(), Em3dVersion::Ghost)
                .run(&Runtime::SPLITC, cost.clone())
                .breakdown;
            format!(
                "elapsed={} components={:?} counts={:?} metrics={}",
                b.elapsed,
                b.components(),
                b.counts,
                registry_json(b.metrics.as_ref().expect("metrics were enabled")),
            )
        })];
        run_jobs(units, jobs).join("\n")
    };
    for seed in [7, 42, 1997] {
        let a = run_jobs_pair(seed, &run_json);
        assert_eq!(a.0, a.1, "seed {seed}: report differs between -j1 and -j8");
        let again = run_json(seed, 8);
        assert_eq!(a.1, again, "seed {seed}: report differs across repeats");
    }
    // Different seeds must actually produce different runs (the invariance
    // above is not vacuous).
    assert_ne!(run_json(7, 1), run_json(1997, 1));
}

fn run_jobs_pair(seed: u64, run_json: &dyn Fn(u64, usize) -> String) -> (String, String) {
    (run_json(seed, 1), run_json(seed, 8))
}

#[test]
fn metrics_json_is_deterministic_under_faults() {
    let cost = || {
        CostModel::default()
            .with_metrics()
            .with_faults(FaultModel::uniform(1997, 0.05, 0.025, 0.05))
    };
    let j1 = suite_metrics_json(cost(), 1);
    let j8 = suite_metrics_json(cost(), 8);
    assert_eq!(j1, j8, "faulty metrics JSON differs between -j1 and -j8");
    let again = suite_metrics_json(cost(), 8);
    assert_eq!(
        j8, again,
        "faulty metrics JSON differs across repeated runs"
    );
    // The lossy wire exercises the retransmit-backoff histogram.
    assert!(j1.contains("am.retransmit_backoff_ns"), "{j1}");
}

/// End-to-end: the msgprofile binary (suite + metrics + traffic matrices)
/// must emit byte-identical stdout and JSON for any worker count.
#[test]
fn msgprofile_is_jobs_invariant() {
    let bin = env!("CARGO_BIN_EXE_msgprofile");
    let run = |jobs: &str, tag: &str| -> (Vec<u8>, Vec<u8>) {
        let json_path: PathBuf = std::env::temp_dir().join(format!("mpmd_metrics_{tag}.json"));
        let _ = std::fs::remove_file(&json_path);
        let out = Command::new(bin)
            .args(["--quick", "-j", jobs, "--json"])
            .arg(&json_path)
            .output()
            .unwrap_or_else(|e| panic!("spawning msgprofile: {e}"));
        assert!(
            out.status.success(),
            "msgprofile failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(&json_path).expect("msgprofile wrote JSON");
        let _ = std::fs::remove_file(&json_path);
        (out.stdout, json)
    };
    let (out_a, json_a) = run("1", "j1");
    let (out_b, json_b) = run("8", "j8");
    assert_eq!(
        json_a, json_b,
        "msgprofile JSON differs between -j1 and -j8"
    );
    assert_eq!(
        out_a, out_b,
        "msgprofile stdout differs between -j1 and -j8"
    );
    let text = String::from_utf8_lossy(&json_a);
    assert!(text.contains("\"metrics\""), "runs carry no metrics block");
    assert!(
        text.contains("net.msgs_to"),
        "no traffic matrix in registry"
    );
}
