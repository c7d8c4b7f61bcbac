//! A CC++ run frees its state: once `run` has returned, the per-node runtime
//! singletons are dropped. Every blocking RMI parks its caller in a
//! condition-variable wait (the reply sync variable), whose hand-unlocked
//! guard once leaked a reference to the whole fabric — so each CC++
//! simulation kept its kernel, event heap, task table and stacks forever.

use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::Sim;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Sets its flag when dropped.
struct DropProbe(Arc<AtomicBool>);

impl Drop for DropProbe {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn threaded_rmi_program<F: Fabric>(ctx: &F, freed: &Arc<AtomicBool>) {
    if ctx.node() == 0 {
        let probe = Arc::clone(freed);
        ctx.node_data(move || DropProbe(probe));
    }
    cx::init(ctx, CcxxConfig::tham());
    cx::register_method(ctx, "twice", |_c, a| {
        cx::RmiRet::of_words([a.words[0] * 2, 0, 0, 0])
    });
    cx::barrier(ctx);
    if ctx.node() == 0 {
        let r = cx::rmi(ctx, 1, "twice", &[21], None, CallMode::Threaded);
        assert_eq!(r.words[0], 42);
        // The call's record waits on the free list for a next call that
        // never comes; it has to go with the node's state.
        assert_eq!(cx::debug_call_records(ctx), 1);
    }
    cx::finalize(ctx);
}

#[test]
fn teardown_frees_state_sim() {
    let freed = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&freed);
    Sim::new(2).run(move |ctx| threaded_rmi_program(&ctx, &f));
    assert!(freed.load(Ordering::Acquire), "the run's state outlived it");
}

#[test]
fn teardown_frees_state_local() {
    let freed = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&freed);
    LocalFabric::run(2, move |ctx| threaded_rmi_program(&ctx, &f));
    assert!(freed.load(Ordering::Acquire), "the run's state outlived it");
}
