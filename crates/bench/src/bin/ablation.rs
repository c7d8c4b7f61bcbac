//! Ablation benches for the design choices §4 calls out: method stub
//! caching, persistent buffers, return-buffer passing, and polling-based vs
//! interrupt-driven reception.
//!
//! Usage: `cargo run --release -p mpmd-bench --bin ablation [iters] [-j N] [--coalescing] [--json <path>]`

use mpmd_apps::em3d::{Em3dParams, Em3dVersion};
use mpmd_apps::{App, AppRun, Output, Runtime};
use mpmd_bench::fmt::{
    reject_unknown_args, render_table, take_count, take_json_flag, take_switch, us, write_json,
    JsonReport,
};
use mpmd_bench::micro::run_table4_with;
use mpmd_bench::runner::{map_jobs, take_jobs_flag};
use mpmd_ccxx::CcxxConfig;
use mpmd_sim::CostModel;
use serde::Serialize as _;

const USAGE: &str = "ablation [iters] [-j N] [--coalescing] [--json <path>]";

fn main() {
    let (args, json_path) = take_json_flag(std::env::args().skip(1));
    let (args, jobs) = take_jobs_flag(args.into_iter());
    let (args, coalescing_axis) = take_switch(args, "--coalescing");
    let (args, iters) = take_count(args, 100, USAGE);
    reject_unknown_args(&args, USAGE);
    let mut json = serde_json::Map::new();

    let configs: Vec<(&str, CcxxConfig)> = vec![
        ("ThAM (all optimizations)", CcxxConfig::tham()),
        ("no stub caching", CcxxConfig::tham().without_stub_caching()),
        (
            "no persistent buffers",
            CcxxConfig::tham().without_persistent_buffers(),
        ),
        (
            "return-buffer passing",
            CcxxConfig::tham().with_return_buffer_passing(),
        ),
        (
            "interrupts @ 25 µs",
            CcxxConfig::tham().with_interrupts(mpmd_sim::us(25.0)),
        ),
        (
            "interrupts @ 100 µs",
            CcxxConfig::tham().with_interrupts(mpmd_sim::us(100.0)),
        ),
    ];

    eprintln!("running micro-benchmark ablations ({iters} iterations)...");
    let mut rows = Vec::new();
    let mut micro_json = serde_json::Map::new();
    let t4s = map_jobs(configs.clone(), jobs, |(name, cfg)| {
        (name, run_table4_with(cfg, CostModel::default(), iters))
    });
    for (name, t4) in &t4s {
        micro_json.insert(
            name.to_string(),
            serde_json::Value::Array(t4.iter().map(|r| r.to_json()).collect()),
        );
        let get = |n: &str| t4.iter().find(|r| r.name == n).unwrap().cc.total_us;
        rows.push(vec![
            name.to_string(),
            us(Some(get("0-Word Simple"))),
            us(Some(get("0-Word Threaded"))),
            us(Some(get("BulkWrite 40-Word"))),
            us(Some(get("BulkRead 40-Word"))),
            us(Some(get("Prefetch 20-Word"))),
        ]);
    }
    println!("Micro-benchmark totals per runtime configuration (µs)");
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "0W Simple",
                "0W Threaded",
                "BulkWrite",
                "BulkRead",
                "Prefetch/elt"
            ],
            &rows
        )
    );

    eprintln!("running em3d-bulk ablations...");
    let p = Em3dParams {
        graph_nodes: 160,
        degree: 8,
        procs: 4,
        steps: 2,
        remote_frac: 1.0,
        seed: 42,
    };
    let mut rows = Vec::new();
    let mut em3d_json = serde_json::Map::new();
    let app = App::Em3d(p, Em3dVersion::Bulk);
    let em3d_runs = map_jobs(configs.clone(), jobs, move |(name, cfg)| {
        (
            name,
            app.run(&Runtime::Ccxx(Box::new(cfg)), CostModel::default()),
        )
    });
    for (name, run) in &em3d_runs {
        em3d_json.insert(
            name.to_string(),
            mpmd_sim::to_secs(run.breakdown.elapsed).to_value(),
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", mpmd_sim::to_secs(run.breakdown.elapsed)),
        ]);
    }
    println!("em3d-bulk (100% remote, reduced graph) per configuration");
    println!("{}", render_table(&["configuration", "seconds"], &rows));

    // Per-destination message coalescing (opt-in axis: the paper's runtimes
    // send every AM individually, so the default run stays exactly the
    // paper's configuration). Self-verifying: application results must be
    // bit-identical with the aggregation on, and the wire must carry
    // strictly fewer messages.
    if coalescing_axis {
        eprintln!("running em3d coalescing ablation (paper-scale, 100% remote)...");
        let app = App::Em3d(Em3dParams::paper(1.0), Em3dVersion::Ghost);
        let mut rows = Vec::new();
        let mut co_json = serde_json::Map::new();
        let cell = |run: &AppRun<Output>| {
            let mut m = serde_json::Map::new();
            m.insert(
                "msgs_sent".to_string(),
                run.breakdown.counts.msgs_sent.to_value(),
            );
            m.insert("net_ns".to_string(), run.breakdown.net.to_value());
            m.insert(
                "secs".to_string(),
                mpmd_sim::to_secs(run.breakdown.elapsed).to_value(),
            );
            serde_json::Value::Object(m)
        };
        let bits = |o: &Output| o.values().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut push = |lang: &str,
                        co_json: &mut serde_json::Map,
                        off: &AppRun<Output>,
                        on: &AppRun<Output>| {
            assert_eq!(
                bits(&off.output),
                bits(&on.output),
                "{lang}: coalescing changed em3d results"
            );
            let (m_off, m_on) = (
                off.breakdown.counts.msgs_sent,
                on.breakdown.counts.msgs_sent,
            );
            assert!(
                m_on < m_off,
                "{lang}: coalescing did not reduce wire messages ({m_on} vs {m_off})"
            );
            assert!(
                on.breakdown.net < off.breakdown.net,
                "{lang}: coalescing did not reduce net time"
            );
            let drop_pct = 100.0 * (m_off - m_on) as f64 / m_off as f64;
            let mut m = serde_json::Map::new();
            m.insert("off".to_string(), cell(off));
            m.insert("on".to_string(), cell(on));
            m.insert("msgs_drop_pct".to_string(), drop_pct.to_value());
            co_json.insert(lang.to_string(), serde_json::Value::Object(m));
            for (label, r) in [("off", off), ("on", on)] {
                rows.push(vec![
                    format!("{lang} {label}"),
                    format!("{}", r.breakdown.counts.msgs_sent),
                    format!("{:.0}", r.breakdown.net as f64 / 1_000.0),
                    format!("{:.4}", mpmd_sim::to_secs(r.breakdown.elapsed)),
                ]);
            }
            drop_pct
        };
        let run = |rt: Runtime| app.run(&rt, CostModel::default());
        let sc_off = run(Runtime::SPLITC);
        let sc_on = run(Runtime::SplitC {
            coalescing: Some(mpmd_splitc::CoalesceConfig::default()),
        });
        let sc_drop = push("splitc-ghost", &mut co_json, &sc_off, &sc_on);
        assert!(
            sc_drop >= 25.0,
            "splitc-ghost: wire message drop only {sc_drop:.1}% (< 25%)"
        );
        let cc_off = run(Runtime::tham());
        let cc_on = run(Runtime::Ccxx(Box::new(
            CcxxConfig::tham().with_coalescing(mpmd_ccxx::CoalesceConfig::default()),
        )));
        push("ccxx-ghost", &mut co_json, &cc_off, &cc_on);
        println!("em3d per-destination coalescing (paper graph, 100% remote)");
        println!(
            "{}",
            render_table(
                &["configuration", "wire msgs", "net (µs)", "seconds"],
                &rows
            )
        );
        println!("  (results bit-identical in both runtimes; splitc drop {sc_drop:.1}%)");
        json.insert(
            "em3d_coalescing".to_string(),
            serde_json::Value::Object(co_json),
        );
    }

    // Optimistic Active Messages (§7 related work, implemented as an
    // extension): compare a null RMI under Threaded vs Optimistic dispatch
    // for methods that can and cannot block.
    eprintln!("running OAM comparison...");
    let oam = mpmd_bench::micro::measure_oam(iters);
    let mut rows = Vec::new();
    let mut oam_json = serde_json::Map::new();
    for (name, v) in oam {
        oam_json.insert(name.to_string(), v.to_value());
        rows.push(vec![name.to_string(), us(Some(v))]);
    }
    println!("Optimistic Active Messages (null RMI total, µs)");
    println!("{}", render_table(&["dispatch", "total"], &rows));

    if let Some(path) = &json_path {
        json.insert("table".to_string(), "ablation".to_value());
        json.insert("iters".to_string(), iters.to_value());
        json.insert("micro".to_string(), serde_json::Value::Object(micro_json));
        json.insert(
            "em3d_bulk_secs".to_string(),
            serde_json::Value::Object(em3d_json),
        );
        json.insert(
            "oam_total_us".to_string(),
            serde_json::Value::Object(oam_json),
        );
        write_json(path, &serde_json::Value::Object(json));
    }
}
