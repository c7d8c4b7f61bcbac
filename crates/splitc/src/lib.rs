//! # mpmd-splitc — the Split-C SPMD runtime
//!
//! "Split-C is a parallel extension of C that supports efficient access to a
//! global address space using global pointers... The compiler performs simple
//! source-to-source transformations, converting the language extensions into
//! runtime library calls." This crate is that runtime library: the SPMD
//! baseline against which the paper measures MPMD (CC++) communication.
//!
//! Feature map from the paper's Figure 2 pseudo-code:
//!
//! | Split-C construct            | here                         |
//! |------------------------------|------------------------------|
//! | `double *global gpY`         | [`GlobalPtr`]                |
//! | `lx = *gpY` / `*gpY = lx`    | [`read`] / [`write()`]       |
//! | `lx := *gpY` (split-phase)   | [`get`] + [`sync`]           |
//! | `*gpY := lx` (split-phase)   | [`put`] + [`sync`]           |
//! | `*gpY :- lx` (one-way store) | [`store`] / [`bulk_store`] + [`all_store_sync`] |
//! | `bulk_read` / `bulk_write`   | [`bulk_read`] / [`bulk_write`] |
//! | `atomic(foo, 0)`             | [`atomic_rpc`] / [`atomic_add`] |
//! | `barrier()`                  | [`barrier`]                  |
//! | `double A[n]::`              | [`SpreadArray`] via [`all_spread_alloc`] |
//!
//! Every node is single-threaded and spin-polls for completions; no Split-C
//! operation charges thread-management or thread-sync time.

mod collective;
mod costs;
mod gptr;
mod handlers;
mod ops;
mod state;

pub use collective::{
    all_spread_alloc, all_store_sync, alloc_region, barrier, init, init_coalesced, reduce,
    reduce_sum_f64, reduce_sum_u64,
};
pub use costs::ScCosts;
pub use gptr::{GlobalPtr, SpreadArray};
pub use mpmd_am::{pack_addr, unpack_addr, CoalesceConfig, ReduceOp};
pub use ops::{
    atomic_add, atomic_add3, atomic_rpc, bulk_read, bulk_store, bulk_write, get, get_bulk, put,
    read, read_vec3, register_atomic, store, sync, with_local, write, BulkGetHandle, GetHandle,
    ATOMIC_ADD3_F64, ATOMIC_ADD_F64, ATOMIC_NULL,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ScState;
    use mpmd_am as am;
    use mpmd_sim::{to_us, us, Bucket, Fabric, Sim, ACROSS_NODES};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn spread_alloc_and_local_access() {
        Sim::new(4).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 8, 0.0);
            // Write my node id into my whole chunk, locally.
            with_local(&ctx, a.region, |v| {
                for x in v.iter_mut() {
                    *x = ctx.node() as f64;
                }
            });
            barrier(&ctx);
            // Read one element from every node synchronously.
            for k in 0..ctx.nodes() {
                let v = read(&ctx, a.node_chunk(k).add(3));
                assert_eq!(v, k as f64);
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn remote_write_then_read_round_trips() {
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 4, 0.0);
            barrier(&ctx);
            if ctx.node() == 0 {
                write(&ctx, a.node_chunk(1).add(2), 6.25);
            }
            barrier(&ctx);
            if ctx.node() == 1 {
                assert_eq!(with_local(&ctx, a.region, |v| v[2]), 6.25);
            }
            barrier(&ctx);
        });
    }

    /// Two tasks of node 0 read node 1 at once, so one's reply is often
    /// handled by the other's poll: each must get its own value back, and
    /// the node ends with one call record per task that ever waited, not one
    /// per read.
    fn sibling_readers<F: Fabric>(ctx: &F) {
        const READS: usize = 500;
        init(ctx);
        let a = all_spread_alloc(ctx, 2, 0.0);
        if ctx.node() == 1 {
            with_local(ctx, a.region, |v| v.copy_from_slice(&[1.5, 2.5]));
        }
        barrier(ctx);
        if ctx.node() == 0 {
            let reader = move |c: &F, at: usize, want: f64| {
                for _ in 0..READS {
                    assert_eq!(read(c, a.node_chunk(1).add(at)), want);
                }
            };
            let sibling = ctx.spawn("sibling-reader", move |c| reader(&c, 1, 2.5));
            reader(ctx, 0, 1.5);
            ctx.join(sibling);
            let kept = ScState::get(ctx).records.len(ctx);
            assert!((1..=2).contains(&kept), "{kept} records kept");
        }
        barrier(ctx);
    }

    #[test]
    fn sibling_readers_each_get_their_own_reply_sim() {
        Sim::new(2).run(|ctx| sibling_readers(&ctx));
    }

    #[test]
    fn sibling_readers_each_get_their_own_reply_local() {
        mpmd_fabric::LocalFabric::run(2, |ctx| sibling_readers(&ctx));
    }

    /// A test handler, outside the runtime's ids, that reads the issuer's
    /// half of the call record its message carries.
    const H_TOUCH: am::HandlerId = 200;

    /// Node 0 makes its call record warm, touches it through a message to
    /// itself (its own node may), then warms a second one and sends it to
    /// node 1, whose touch must fail the run.
    fn a_callee_touches_a_warm_record<F: Fabric>(ctx: &F) {
        init(ctx);
        let a = all_spread_alloc(ctx, 1, 1.5);
        let touched = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&touched);
        am::register(ctx, H_TOUCH, move |ctx, mut m| {
            am::CallRecord::<()>::of(&mut m).debug_touch(ctx);
            t.fetch_add(1, Ordering::AcqRel);
        });
        barrier(ctx);
        if ctx.node() == 0 {
            let records = &ScState::get(ctx).records;
            let send_record = |dst| {
                let (record, _cell) = records.take(ctx, false);
                let send = am::endpoint(ctx).to(dst).handler(H_TOUCH);
                send.token(record as am::Token).send();
            };
            assert_eq!(read(ctx, a.node_chunk(1)), 1.5);
            write(ctx, a.node_chunk(1), 2.5);
            assert_eq!(records.len(ctx), 1, "one warm record");
            send_record(0);
            am::wait_until(ctx, || touched.load(Ordering::Acquire) == 1);
            assert_eq!(read(ctx, a.node_chunk(1)), 2.5);
            send_record(1);
        }
        barrier(ctx);
    }

    fn fails_across_nodes(run: impl FnOnce()) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("a callee touched the issuer's half of a record");
        let msg = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
        };
        assert_eq!(
            msg,
            format!("a touch from node 1 of another node's state {ACROSS_NODES}")
        );
    }

    #[test]
    fn a_callee_that_touches_a_warm_record_fails_the_run_sim() {
        fails_across_nodes(|| {
            Sim::new(2).run(|ctx| a_callee_touches_a_warm_record(&ctx));
        });
    }

    #[test]
    fn a_callee_that_touches_a_warm_record_fails_the_run_local() {
        fails_across_nodes(|| {
            mpmd_fabric::LocalFabric::run(2, |ctx| a_callee_touches_a_warm_record(&ctx));
        });
    }

    #[test]
    fn gp_read_takes_57us() {
        // Table 4: Split-C "GP 2-Word R/W" Total = 57 µs.
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 1, 1.5);
            barrier(&ctx);
            if ctx.node() == 0 {
                let t0 = ctx.now();
                let v = read(&ctx, a.node_chunk(1));
                let dt = ctx.now() - t0;
                assert_eq!(v, 1.5);
                assert!(
                    (to_us(dt) - 57.0).abs() < 2.0,
                    "GP read took {} µs",
                    to_us(dt)
                );
            } else {
                // keep node 1 responsive but out of the way
                let st_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let d2 = std::sync::Arc::clone(&st_done);
                let h = ctx.spawn("quit-watch", move |_| {
                    d2.store(true, std::sync::atomic::Ordering::SeqCst);
                });
                ctx.join(h);
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn split_phase_prefetch_overlaps() {
        // 20 split-phase gets + sync must be far cheaper than 20 blocking
        // reads (Table 4: 12.1 µs/element vs 57 µs/element).
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 20, 0.0);
            with_local(&ctx, a.region, |v| {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = (ctx.node() * 100 + i) as f64;
                }
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                let t0 = ctx.now();
                let handles: Vec<_> = (0..20).map(|i| get(&ctx, a.node_chunk(1).add(i))).collect();
                sync(&ctx);
                let per_elt = to_us(ctx.now() - t0) / 20.0;
                for (i, h) in handles.iter().enumerate() {
                    assert_eq!(h.value(), (100 + i) as f64);
                }
                assert!(
                    per_elt < 20.0,
                    "split-phase get cost {per_elt} µs/element — no overlap?"
                );
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn bulk_read_and_write_move_whole_arrays() {
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 20, 0.0);
            with_local(&ctx, a.region, |v| {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = (ctx.node() * 1000 + i) as f64;
                }
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                let got = bulk_read(&ctx, a.node_chunk(1), 20);
                assert_eq!(got.len(), 20);
                assert!(got.iter().enumerate().all(|(i, &v)| v == (1000 + i) as f64));
                let back: Vec<f64> = (0..20).map(|i| -(i as f64)).collect();
                bulk_write(&ctx, a.node_chunk(1), &back);
            }
            barrier(&ctx);
            if ctx.node() == 1 {
                with_local(&ctx, a.region, |v| {
                    assert!(v.iter().enumerate().all(|(i, &x)| x == -(i as f64)));
                });
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn a_bulk_get_reads_its_values_as_often_as_asked() {
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 6, ctx.node() as f64 + 0.5);
            if ctx.node() == 0 {
                // A remote get, whose values ride the reply, then a local one.
                for gp in [a.node_chunk(1), a.node_chunk(0)] {
                    let h = get_bulk(&ctx, gp.add(2), 3);
                    sync(&ctx);
                    let want = vec![gp.node as f64 + 0.5; 3];
                    assert_eq!(h.values(), want);
                    assert_eq!(h.values(), want, "a second call reads them again");
                }
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn one_way_stores_complete_after_all_store_sync() {
        Sim::new(4).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 4, 0.0);
            barrier(&ctx);
            // Everyone stores its node id into slot `me` of every node.
            for k in 0..ctx.nodes() {
                store(&ctx, a.node_chunk(k).add(ctx.node()), ctx.node() as f64);
            }
            all_store_sync(&ctx);
            with_local(&ctx, a.region, |v| {
                for (i, &x) in v.iter().enumerate() {
                    assert_eq!(x, i as f64, "slot {i} on node");
                }
            });
            barrier(&ctx);
        });
    }

    #[test]
    fn bulk_store_used_for_pivot_pushes() {
        Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 16, 0.0);
            barrier(&ctx);
            if ctx.node() == 0 {
                let block: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
                bulk_store(&ctx, a.node_chunk(1), &block);
            }
            all_store_sync(&ctx);
            if ctx.node() == 1 {
                with_local(&ctx, a.region, |v| {
                    assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64 * 0.5));
                });
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn atomic_rpc_runs_remotely_and_returns() {
        Sim::new(2).run(|ctx| {
            init(&ctx);
            barrier(&ctx);
            if ctx.node() == 0 {
                let t0 = ctx.now();
                let r = atomic_rpc(&ctx, 1, ATOMIC_NULL, [0; 3]);
                assert_eq!(r, [0; 4]);
                // Table 4: Split-C 0-Word Atomic Total = 56 µs.
                let dt = to_us(ctx.now() - t0);
                assert!((dt - 56.0).abs() < 2.0, "atomic rpc took {dt} µs");
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn atomic_add_accumulates_remotely() {
        Sim::new(3).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 1, 0.0);
            barrier(&ctx);
            // All nodes add their (id+1) into node 0's slot.
            atomic_add(&ctx, a.node_chunk(0), (ctx.node() + 1) as f64);
            barrier(&ctx);
            if ctx.node() == 0 {
                assert_eq!(with_local(&ctx, a.region, |v| v[0]), 6.0);
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn reductions_combine_all_nodes() {
        Sim::new(4).run(|ctx| {
            init(&ctx);
            assert_eq!(reduce_sum_u64(&ctx, ctx.node() as u64 + 1), 10);
            let s = reduce_sum_f64(&ctx, 0.25);
            assert_eq!(s, 1.0);
            assert_eq!(reduce(&ctx, ReduceOp::MaxU64, ctx.node() as u64 * 7), 21);
        });
    }

    #[test]
    fn no_thread_ops_are_ever_charged() {
        // A Split-C node is single-threaded; the whole point of the paper's
        // comparison is that these costs are zero on the SPMD side.
        let r = Sim::new(2).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 8, 1.0);
            barrier(&ctx);
            if ctx.node() == 0 {
                let _ = read(&ctx, a.node_chunk(1).add(1));
                write(&ctx, a.node_chunk(1).add(2), 2.0);
                let _h = get(&ctx, a.node_chunk(1).add(3));
                put(&ctx, a.node_chunk(1).add(4), 4.0);
                sync(&ctx);
                let _ = bulk_read(&ctx, a.node_chunk(1), 8);
            }
            barrier(&ctx);
        });
        let t = r.total_stats();
        assert_eq!(t.thread_creates, 0);
        assert_eq!(t.context_switches, 0);
        assert_eq!(t.sync_ops, 0);
        assert_eq!(t.bucket(Bucket::ThreadMgmt), 0);
        assert_eq!(t.bucket(Bucket::ThreadSync), 0);
    }

    #[test]
    fn local_accesses_are_cheap() {
        let r = Sim::new(1).run(|ctx| {
            init(&ctx);
            let a = all_spread_alloc(&ctx, 100, 0.0);
            for i in 0..100 {
                write(&ctx, a.gp_block(i), i as f64);
            }
            for i in 0..100 {
                assert_eq!(read(&ctx, a.gp_block(i)), i as f64);
            }
        });
        // 200 local derefs at 0.05 µs each = 10 µs of runtime, no messages
        // beyond init-time traffic.
        let rt = r.total_stats().bucket(Bucket::Runtime);
        assert_eq!(rt, us(10.0));
    }
}
