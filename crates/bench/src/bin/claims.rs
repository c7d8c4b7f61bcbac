//! Check the quantitative claims of the paper's §6 Discussion against the
//! reproduction:
//!
//! * thread synchronization is 14-32% of the CC++/Split-C gap;
//! * ~95% of lock acquisitions are contention-less;
//! * 75-85% of thread-management cost is context switches;
//! * thread management is 10-15% of CC++ application cost;
//! * the method-name translation overhead is negligible (stub caching).
//!
//! Usage: `cargo run --release -p mpmd-bench --bin claims [--quick]`

use mpmd_apps::em3d::Em3dVersion;
use mpmd_bench::experiments::{run_fig5, run_fig6_lu, Scale};
use mpmd_bench::fmt::{reject_unknown_args, render_table, take_json_flag, write_json};
use mpmd_sim::{to_us, CostModel};

const USAGE: &str = "claims [--quick] [--json <path>]";

fn main() {
    let (rest, json_path) = take_json_flag(std::env::args().skip(1));
    let (rest, scale) = Scale::take(rest);
    reject_unknown_args(&rest, USAGE);
    eprintln!("running discussion-claims analysis ({scale:?} scale)...");
    let jobs = mpmd_bench::runner::default_jobs();
    let cells = run_fig5(scale, &[1.0], jobs);
    let (lu_sc, lu_cc) = run_fig6_lu(scale, jobs);

    // What the runs above charged per thread operation.
    let threads = CostModel::default().threads;
    let mut rows = Vec::new();
    let mut check = |name: &str, app: &str, got: f64, paper: &str| {
        rows.push(vec![
            name.to_string(),
            app.to_string(),
            format!("{got:.1}%"),
            paper.to_string(),
        ]);
    };

    for (v, _f, sc, cc) in &cells {
        let gap = cc.breakdown.elapsed.saturating_sub(sc.breakdown.elapsed) as f64;
        if gap <= 0.0 {
            continue;
        }
        let sync_share = cc.breakdown.thread_sync as f64 / gap * 100.0;
        let paper = match v {
            Em3dVersion::Ghost => "19% (em3d-ghost)",
            _ => "14-32%",
        };
        check("sync share of gap", v.label(), sync_share, paper);

        let mgmt_share = cc.breakdown.thread_mgmt as f64 / cc.breakdown.busy_total() as f64 * 100.0;
        check(
            "thread mgmt share of cc++ cost",
            v.label(),
            mgmt_share,
            "10-15%",
        );

        let c = &cc.breakdown.counts;
        let switch_cost = c.context_switches as f64 * threads.context_switch as f64;
        let create_cost = c.thread_creates as f64 * threads.create as f64;
        let switch_share = switch_cost / (switch_cost + create_cost).max(1.0) * 100.0;
        check(
            "context-switch share of thread mgmt",
            v.label(),
            switch_share,
            "75-85%",
        );

        let contention_less =
            (1.0 - c.lock_contended as f64 / c.lock_acquisitions.max(1) as f64) * 100.0;
        check(
            "contention-less lock acquisitions",
            v.label(),
            contention_less,
            "~95%",
        );
    }

    {
        let gap = lu_cc
            .breakdown
            .elapsed
            .saturating_sub(lu_sc.breakdown.elapsed) as f64;
        let sync_share = lu_cc.breakdown.thread_sync as f64 / gap.max(1.0) * 100.0;
        check("sync share of gap", "cc-lu", sync_share, "32%");
        // The paper puts "about 20% of the gap" on extra data copying. The
        // runtime bucket holds that copy and the rest of the CC++ runtime
        // (marshalling, stubs, reply matching), so its excess over Split-C's
        // bounds the copying share from above; it exceeds the whole gap when
        // CC++ spends less than Split-C elsewhere.
        let runtime_share = (lu_cc
            .breakdown
            .runtime
            .saturating_sub(lu_sc.breakdown.runtime)) as f64
            / gap.max(1.0)
            * 100.0;
        check(
            "runtime excess share of gap",
            "cc-lu",
            runtime_share,
            "~20% (copying)",
        );
        let net_ratio = lu_cc.breakdown.net as f64 / lu_sc.breakdown.net.max(1) as f64;
        rows.push(vec![
            "cc-lu net vs sc-lu net".into(),
            "cc-lu".into(),
            format!("{net_ratio:.1}x"),
            "~2x".into(),
        ]);
    }

    // Stub caching makes name translation negligible: 3 µs of a ~92 µs GP
    // access.
    rows.push(vec![
        "method lookup cost (stub caching)".into(),
        "all".into(),
        format!(
            "{:.1} µs",
            to_us(mpmd_ccxx::CcxxCosts::default().stub_lookup)
        ),
        "~3 µs".into(),
    ]);

    println!("Discussion claims — reproduction vs paper");
    println!(
        "{}",
        render_table(&["claim", "application", "measured", "paper"], &rows)
    );

    if let Some(path) = &json_path {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("table".to_string(), "claims".to_value());
        m.insert(
            "claims".to_string(),
            serde_json::Value::Array(
                rows.iter()
                    .map(|r| {
                        let mut c = serde_json::Map::new();
                        c.insert("claim".to_string(), r[0].to_value());
                        c.insert("application".to_string(), r[1].to_value());
                        c.insert("measured".to_string(), r[2].to_value());
                        c.insert("paper".to_string(), r[3].to_value());
                        serde_json::Value::Object(c)
                    })
                    .collect(),
            ),
        );
        write_json(path, &serde_json::Value::Object(m));
    }
}
