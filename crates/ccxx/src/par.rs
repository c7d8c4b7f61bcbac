//! CC++ parallel control structures: `par`, `parfor`, and prefetching.
//!
//! "New threads of control can be created using spawn, and control blocks
//! can execute concurrently if annotated with the par and parfor keywords."

use crate::gp::gp_read_async;
use crate::state::CxPtr;
use mpmd_fabric::Fabric;
use mpmd_sim::NodeCell;
use mpmd_threads::{spawn, Thread};
use std::sync::Arc;

/// Execute `bodies` concurrently (the `par` block); returns when all have
/// completed. Each body costs a thread create.
pub fn par<Fab: Fabric>(ctx: &Fab, bodies: Vec<Box<dyn FnOnce(Fab) + Send>>) {
    let handles: Vec<Thread> = bodies.into_iter().map(|b| spawn(ctx, "par", b)).collect();
    for h in handles {
        h.join(ctx);
    }
}

/// Execute `f(0..n)` concurrently (the `parfor` block); returns when all
/// iterations have completed.
pub fn parfor<Fab: Fabric, F>(ctx: &Fab, n: usize, f: F)
where
    F: Fn(&Fab, usize) + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let handles: Vec<Thread> = (0..n)
        .map(|i| {
            let f = Arc::clone(&f);
            spawn(ctx, "parfor", move |cctx| f(&cctx, i))
        })
        .collect();
    for h in handles {
        h.join(ctx);
    }
}

/// Prefetch a set of remote doubles concurrently — the paper's Prefetch
/// micro-benchmark:
///
/// ```text
/// parfor (i = 0; i < 20; i++)
///     lx = *gpY;
/// ```
///
/// Each parfor thread issues an (owner-inline) read and blocks on it; the
/// requests overlap on the wire, which is what makes this "latency hiding"
/// — though "the overhead of thread management reduces the effectiveness of
/// latency hiding substantially" relative to Split-C's split-phase gets.
pub fn prefetch<Fab: Fabric>(ctx: &Fab, ptrs: &[CxPtr]) -> Vec<f64> {
    let n = ptrs.len();
    let ptrs: Arc<Vec<CxPtr>> = Arc::new(ptrs.to_vec());
    let results = Arc::new(NodeCell::new(vec![0.0f64; n]));
    let r2 = Arc::clone(&results);
    parfor(ctx, n, move |cctx, i| {
        let h = gp_read_async(cctx, ptrs[i]);
        let v = h.wait(cctx);
        r2.with(cctx, |r| r[i] = v);
    });
    results.with(ctx, std::mem::take)
}
