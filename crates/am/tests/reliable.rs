//! Reliable-delivery protocol tests: correctness and determinism of the AM
//! layer under injected wire faults.

use mpmd_am::{self as am, NetProfile};
use mpmd_sim::{CostModel, Fabric, FaultModel, Report, Sim};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const H_SINK: am::HandlerId = 100;
const N_MSGS: u64 = 50;

/// Node 0 streams `N_MSGS` short messages to node 1; node 1 records the
/// arrival order of their first argument words. Returns the report and log.
fn run_stream(faults: Option<FaultModel>) -> (Report, Vec<u64>) {
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let l_out = Arc::clone(&log);
    let mut sim = Sim::new(2);
    if let Some(f) = faults {
        sim = sim.cost_model(CostModel::default().with_faults(f));
    }
    let r = sim.run(move |ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        let l2 = Arc::clone(&log);
        am::register(&ctx, H_SINK, move |_ctx, m| {
            l2.lock().push(m.args[0]);
            s2.fetch_add(1, Ordering::SeqCst);
        });
        am::barrier(&ctx);
        if ctx.node() == 0 {
            let ep = am::endpoint(&ctx);
            for i in 0..N_MSGS {
                ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
            }
        } else {
            am::wait_until(&ctx, move || seen.load(Ordering::SeqCst) >= N_MSGS);
        }
        am::barrier(&ctx);
    });
    let got = l_out.lock().clone();
    (r, got)
}

#[test]
fn fault_free_model_measures_pure_protocol_overhead() {
    // An all-zero-rate model still runs the full protocol (seqs, acks) but
    // should never need a retransmission: acks beat the 500 µs RTO.
    let (r, log) = run_stream(Some(FaultModel::new(7)));
    assert_eq!(log, (0..N_MSGS).collect::<Vec<u64>>());
    let t = r.total_stats();
    assert_eq!(t.retransmits, 0, "spurious retransmits without faults");
    assert_eq!(t.dup_drops, 0);
    assert_eq!(t.wire_drops, 0);
    assert_eq!(t.wire_dups, 0);
}

#[test]
fn stream_survives_heavy_drops_in_order() {
    let (r, log) = run_stream(Some(FaultModel::uniform(42, 0.2, 0.0, 0.0)));
    assert_eq!(log, (0..N_MSGS).collect::<Vec<u64>>());
    let t = r.total_stats();
    assert!(t.wire_drops > 0, "20% drop rate never fired");
    assert!(t.retransmits > 0, "drops recovered without retransmits?");
    assert!(t.timeouts > 0);
}

#[test]
fn stream_survives_duplication_and_reordering() {
    let (r, log) = run_stream(Some(FaultModel::uniform(9, 0.05, 0.2, 0.3)));
    assert_eq!(log, (0..N_MSGS).collect::<Vec<u64>>());
    let t = r.total_stats();
    assert!(t.wire_dups > 0, "20% duplication never fired");
    assert!(t.dup_drops > 0, "duplicates were never suppressed");
}

#[test]
fn same_seed_gives_identical_runs() {
    let f = || Some(FaultModel::uniform(1234, 0.1, 0.1, 0.1));
    let (r1, log1) = run_stream(f());
    let (r2, log2) = run_stream(f());
    assert_eq!(log1, log2);
    assert_eq!(r1.clocks, r2.clocks);
    assert_eq!(r1.stats, r2.stats);
}

#[test]
fn different_seeds_draw_different_fault_schedules() {
    let (r1, _) = run_stream(Some(FaultModel::uniform(1, 0.15, 0.0, 0.0)));
    let (r2, _) = run_stream(Some(FaultModel::uniform(2, 0.15, 0.0, 0.0)));
    // Both correct, but the wire behaved differently.
    assert_ne!(
        (r1.total_stats().wire_drops, r1.clocks.clone()),
        (r2.total_stats().wire_drops, r2.clocks.clone())
    );
}

#[test]
fn barriers_stay_correct_under_faults_on_four_nodes() {
    let cost = CostModel::default().with_faults(FaultModel::uniform(5, 0.1, 0.05, 0.1));
    let r = Sim::new(4).cost_model(cost).run(|ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        for i in 0..20u64 {
            ctx.charge(
                mpmd_sim::Bucket::Cpu,
                (ctx.node() as u64 + 1) * 100 * (i % 3 + 1),
            );
            am::barrier(&ctx);
        }
    });
    assert!(r.total_stats().retransmits > 0 || r.total_stats().wire_drops == 0);
}

#[test]
fn bulk_payloads_survive_drops_intact() {
    use bytes::Bytes;
    let cost = CostModel::default().with_faults(FaultModel::uniform(11, 0.15, 0.1, 0.0));
    Sim::new(2).cost_model(cost).run(|ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        am::register(&ctx, H_SINK, move |_ctx, m| {
            let d = m.data.as_ref().unwrap();
            assert_eq!(d.len(), 256);
            assert!(d.iter().enumerate().all(|(i, &b)| b as usize == i % 256));
            s2.fetch_add(1, Ordering::SeqCst);
        });
        am::barrier(&ctx);
        if ctx.node() == 0 {
            let ep = am::endpoint(&ctx);
            for _ in 0..8 {
                let data: Vec<u8> = (0..256usize).map(|i| (i % 256) as u8).collect();
                ep.to(1).handler(H_SINK).bulk(Bytes::from(data)).send();
            }
        } else {
            am::wait_until(&ctx, move || seen.load(Ordering::SeqCst) >= 8);
        }
        am::barrier(&ctx);
    });
}
