//! Scratch test (review-only): do buffered shorts stay ahead of a small
//! bulk send to the same destination when the aggregate frame is large?

use bytes::Bytes;
use mpmd_am as am;
use mpmd_sim::Fabric;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const H_SINK: am::HandlerId = 120;

#[test]
fn big_aggregate_vs_small_bulk_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let l_out = Arc::clone(&log);
    mpmd_sim::Sim::new(2).run(move |ctx| {
        am::init(&ctx, am::NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        am::enable_coalescing(
            &ctx,
            am::CoalesceConfig {
                max_msgs: 64,
                max_bytes: 4096,
                max_linger: mpmd_sim::us(1000.0),
            },
        );
        let l2 = Arc::clone(&log);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&done);
        am::register(&ctx, H_SINK, move |_ctx, m| {
            l2.lock().push((m.args[0], m.data.is_some()));
            if m.data.is_some() {
                d2.store(1, Ordering::SeqCst);
            }
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
                .bulk(Bytes::from(vec![0u8; 8]))
                .send();
        }
        am::barrier(&ctx);
    });
    let l = l_out.lock().clone();
    let first = l.first().cloned();
    assert_eq!(
        first,
        Some((0, false)),
        "bulk overtook the flushed aggregate: {l:?}"
    );
}
