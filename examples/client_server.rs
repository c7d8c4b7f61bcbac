//! A genuinely MPMD program: different code on different nodes.
//!
//! The paper's introduction motivates MPMD with applications that "benefit
//! from a 'client-server' type of setting". This example builds one: node 0
//! runs a key-value *server* processor object; the other nodes run *client*
//! programs that put, get, and atomically increment counters through RMIs —
//! something Split-C's SPMD model (same program, lockstep barriers) cannot
//! express directly.
//!
//! Run with: `cargo run --release --example client_server`

use mpmd_repro::ccxx::{self, CallMode, CcxxConfig, RmiRet};
use mpmd_repro::sim::{to_us, Fabric, Sim};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() {
    let clients_done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&clients_done);

    let report = Sim::new(4).run(move |ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let n_clients = ctx.nodes() - 1;

        if ctx.node() == 0 {
            // ---- the server program ----
            let store: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
            let s1 = Arc::clone(&store);
            ccxx::register_method(&ctx, "kv_put", move |_ctx, args| {
                s1.lock().insert(args.words[0], args.words[1]);
                RmiRet::null()
            });
            let s2 = Arc::clone(&store);
            ccxx::register_method(&ctx, "kv_get", move |_ctx, args| {
                let v = s2.lock().get(&args.words[0]).copied();
                RmiRet::of_words([v.unwrap_or(0), v.is_some() as u64, 0, 0])
            });
            let s3 = Arc::clone(&store);
            // An *atomic* method: read-modify-write under the object lock.
            ccxx::register_method(&ctx, "kv_incr", move |_ctx, args| {
                let mut g = s3.lock();
                let e = g.entry(args.words[0]).or_insert(0);
                *e += args.words[1];
                RmiRet::of_words([*e, 0, 0, 0])
            });
            ccxx::barrier(&ctx);

            // Serve until every client reports completion.
            let d = Arc::clone(&done2);
            ccxx::spin_until(&ctx, move || d.load(Ordering::Acquire) >= n_clients);
            let g = store.lock();
            println!("server: {} keys stored, counter = {}", g.len(), g[&999]);
            assert_eq!(g[&999], ((1..=n_clients as u64).sum::<u64>()) * 10);
        } else {
            // ---- the client program ----
            ccxx::barrier(&ctx);
            let me = ctx.node() as u64;
            let t0 = ctx.now();
            // Store some records.
            for k in 0..5 {
                ccxx::rmi(
                    &ctx,
                    0,
                    "kv_put",
                    &[me * 100 + k, k * k],
                    None,
                    CallMode::Blocking,
                );
            }
            // Read one back.
            let r = ccxx::rmi(&ctx, 0, "kv_get", &[me * 100 + 3], None, CallMode::Blocking);
            assert_eq!(r.words, [9, 1, 0, 0]);
            // Atomically bump a shared counter 10× by our node id.
            for _ in 0..10 {
                ccxx::rmi(&ctx, 0, "kv_incr", &[999, me], None, CallMode::Atomic);
            }
            println!(
                "client {}: 16 RMIs in {:.0} µs (first call cold, rest warm)",
                me,
                to_us(ctx.now() - t0)
            );
            done2.fetch_add(1, Ordering::AcqRel);
            // Nudge the server's spin loop.
            ccxx::rmi(&ctx, 0, ccxx::M_NULL, &[], None, CallMode::Simple);
        }
        ccxx::finalize(&ctx);
    });

    println!(
        "machine totals: {} messages, {} thread creates, {} context switches",
        report.total_stats().msgs_sent,
        report.total_stats().thread_creates,
        report.total_stats().context_switches,
    );
}
