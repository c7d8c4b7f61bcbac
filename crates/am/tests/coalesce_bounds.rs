//! Coalescing-buffer boundary conditions: flushes landing *exactly* at the
//! `max_msgs` / `max_bytes` bounds, a bulk send behind buffered shorts, and
//! poll-driven flushes racing retransmitted frames under wire faults.
//!
//! The append path checks its bounds **after** adding the new sub-message
//! (`len >= max_msgs || bytes >= max_bytes`), so a bound of N must flush on
//! precisely the Nth append — one message earlier is an off-by-one that
//! under-fills frames, one later overflows the configured wire budget.
//! The `agg_flushes`/`agg_msgs` counters pin the exact frame occupancy
//! (singleton flushes bypass them by design, so barrier traffic can't
//! pollute the counts).

use mpmd_am::{self as am, CoalesceConfig, NetProfile, SHORT_WIRE_BYTES, SUB_WIRE_BYTES};
use mpmd_sim::{us, CostModel, Fabric, FaultModel, Report, Sim};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const H_SINK: am::HandlerId = 120;

/// A linger bound that never expires within these tests, so only the
/// msgs/bytes bounds (and mandatory flush points) can trigger flushes.
fn never_linger() -> mpmd_sim::Time {
    us(1e9)
}

/// Node 0 sends `first` short messages (buffered, possibly auto-flushing),
/// then `second` more, then barriers (a mandatory flush point). Node 1
/// logs arrival payloads. Returns the report and node 1's arrival log.
fn run_batches(
    cfg: CoalesceConfig,
    first: u64,
    second: u64,
    faults: Option<FaultModel>,
) -> (Report, Vec<u64>) {
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let l_out = Arc::clone(&log);
    let total = first + second;
    let mut sim = Sim::new(2);
    if let Some(f) = faults {
        sim = sim.cost_model(CostModel::default().with_faults(f));
    }
    let r = sim.run(move |ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        am::enable_coalescing(&ctx, cfg.clone());
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
            for i in 0..first {
                ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
            }
            for i in first..total {
                ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
            }
        } else {
            am::wait_until(&ctx, move || seen.load(Ordering::SeqCst) >= total);
        }
        am::barrier(&ctx);
    });
    let got = l_out.lock().clone();
    (r, got)
}

/// `max_msgs = 3` flushes on exactly the third append: 3 + 2 messages make
/// one full frame of 3 (auto) and one frame of 2 (barrier flush). A flush
/// one append early would split 2+2+singleton (agg_msgs = 4); one late
/// would pack 4+singleton.
#[test]
fn flush_lands_exactly_at_max_msgs() {
    let cfg = CoalesceConfig {
        max_msgs: 3,
        max_bytes: usize::MAX,
        max_linger: never_linger(),
    };
    let (r, log) = run_batches(cfg, 3, 2, None);
    assert_eq!(log, vec![0, 1, 2, 3, 4]);
    let t = r.total_stats();
    assert_eq!(
        t.agg_flushes, 2,
        "expected one auto-flush + one barrier flush"
    );
    assert_eq!(t.agg_msgs, 5, "frame occupancies must be 3 + 2");
    // Each frame is one header plus its sub-messages on the wire.
    assert_eq!(
        t.agg_bytes,
        (2 * SHORT_WIRE_BYTES + 5 * SUB_WIRE_BYTES) as u64
    );
}

/// `max_bytes = 2 * SUB_WIRE_BYTES` trips on exactly the second append:
/// four messages go out as two full frames of two.
#[test]
fn flush_lands_exactly_at_max_bytes() {
    let cfg = CoalesceConfig {
        max_msgs: usize::MAX,
        max_bytes: 2 * SUB_WIRE_BYTES,
        max_linger: never_linger(),
    };
    let (r, log) = run_batches(cfg, 4, 0, None);
    assert_eq!(log, vec![0, 1, 2, 3]);
    let t = r.total_stats();
    assert_eq!(
        t.agg_flushes, 2,
        "80-byte bound must flush on the 2nd append"
    );
    assert_eq!(t.agg_msgs, 4);
}

/// One byte over `2 * SUB_WIRE_BYTES` must NOT flush at the second append
/// (bytes = 80 < 81); the third append reaches 120 and flushes a frame of
/// three. Exactly three messages therefore travel as a single frame.
#[test]
fn one_byte_over_the_bound_defers_the_flush() {
    let cfg = CoalesceConfig {
        max_msgs: usize::MAX,
        max_bytes: 2 * SUB_WIRE_BYTES + 1,
        max_linger: never_linger(),
    };
    let (r, log) = run_batches(cfg, 3, 0, None);
    assert_eq!(log, vec![0, 1, 2]);
    let t = r.total_stats();
    assert_eq!(
        t.agg_flushes, 1,
        "81-byte bound must defer to the 3rd append"
    );
    assert_eq!(t.agg_msgs, 3);
}

/// A bulk send flushes the shorts buffered ahead of it, and must then stay
/// behind them on the wire: 20 buffered shorts make a large aggregate frame,
/// the 8-byte bulk message that follows is small and would land first if
/// wire time alone decided.
#[test]
fn a_small_bulk_send_does_not_overtake_the_aggregate_flushed_ahead_of_it() {
    let cfg = CoalesceConfig {
        max_msgs: 64,
        max_bytes: 4096,
        max_linger: never_linger(),
    };
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let l_out = Arc::clone(&log);
    Sim::new(2).run(move |ctx| {
        am::init(&ctx, NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        am::enable_coalescing(&ctx, cfg.clone());
        let l2 = Arc::clone(&log);
        am::register(&ctx, H_SINK, move |_ctx, m| {
            l2.lock().push((m.args[0], m.data.is_some()));
        });
        am::barrier(&ctx);
        if ctx.node() == 0 {
            let ep = am::endpoint(&ctx);
            for i in 0..20u64 {
                ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
            }
            ep.to(1)
                .handler(H_SINK)
                .args([99, 0, 0, 0])
                .bulk(bytes::Bytes::from(vec![0u8; 8]))
                .send();
        }
        am::barrier(&ctx);
    });
    let mut want: Vec<(u64, bool)> = (0..20).map(|i| (i, false)).collect();
    want.push((99, true));
    assert_eq!(*l_out.lock(), want, "(arg, is bulk) in arrival order");
}

/// Flush-at-poll racing retransmitted frames: under drops, duplicates and
/// reordering, poll-driven flushes interleave with the reliable layer
/// re-sending whole aggregate frames. Delivery must remain exactly-once
/// and in per-link order, and the fault counters must show the race was
/// actually exercised (frames dropped and retransmitted, duplicates
/// suppressed).
#[test]
fn poll_flush_racing_retransmits_stays_exactly_once_in_order() {
    let cfg = CoalesceConfig {
        max_msgs: 4,
        max_bytes: usize::MAX,
        max_linger: never_linger(),
    };
    let n: u64 = 40;
    let (r, log) = run_batches(
        cfg,
        n / 2,
        n / 2,
        Some(FaultModel::uniform(11, 0.25, 0.125, 0.25)),
    );
    assert_eq!(
        log,
        (0..n).collect::<Vec<u64>>(),
        "faulty coalesced stream must deliver exactly-once in order"
    );
    let t = r.total_stats();
    assert!(t.wire_drops > 0, "fault model never dropped a frame");
    assert!(t.retransmits > 0, "drops must force frame retransmissions");
    assert!(t.dup_drops > 0, "duplicate frames must be suppressed");
    assert!(t.agg_flushes >= 2, "traffic must actually coalesce");
}

/// The same faulty run is deterministic: byte-identical stats on repeat.
#[test]
fn faulty_coalesced_run_is_deterministic() {
    let cfg = CoalesceConfig {
        max_msgs: 4,
        max_bytes: usize::MAX,
        max_linger: never_linger(),
    };
    let f = || Some(FaultModel::uniform(11, 0.25, 0.125, 0.25));
    let (r1, log1) = run_batches(cfg.clone(), 20, 20, f());
    let (r2, log2) = run_batches(cfg, 20, 20, f());
    assert_eq!(log1, log2);
    assert_eq!(r1.total_stats(), r2.total_stats());
    assert_eq!(r1.clocks, r2.clocks);
}
