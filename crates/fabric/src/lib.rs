//! # mpmd-fabric — the [`Fabric`] contract and its two machines
//!
//! Everything the messaging layer (`mpmd-am`), the threads package
//! (`mpmd-threads`) and the two language runtimes (`mpmd-splitc`,
//! `mpmd-ccxx`) need from the machine underneath is one trait, [`Fabric`],
//! defined in `mpmd-sim` next to the types it is written in and re-exported
//! here unchanged. The layers above are generic over `F: Fabric` with
//! **static dispatch**.
//!
//! The trait has one implementation: `mpmd_sim::Handle`, a task's handle,
//! written once over a driver that supplies what differs between two
//! machines:
//!
//! * [`SimFabric`] — an alias for [`mpmd_sim::Ctx`], the handle over the
//!   deterministic virtual-time kernel.
//! * [`LocalFabric`] — the handle over the wall-clock driver, which gives
//!   each node one OS thread, runs the node's tasks on it as run-until-block
//!   fibers, and carries frames over per-link rings, so the same
//!   benchmarks (null-RMI, fig5 exchanges, EM3D ghost traffic) execute on
//!   real hardware and report measured nanoseconds.
//!
//! Both drivers live in `mpmd-sim` beside the handle; this crate is the
//! facade its dependents import them through.

pub use mpmd_sim::{
    Ctx as SimFabric, Fabric, LocalFabric, LocalFabricBuilder, SpanGuard, WaitPhase, WaitPolicy,
    Waiter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::{Payload, Sim};

    // One generic body through the trait surface on the simulated fabric
    // (LocalFabric runs the same shape in mpmd-sim's local.rs tests).
    fn ping_pong<F: Fabric>(ctx: &F) {
        if ctx.node() == 0 {
            ctx.send_msg(1, 8, 1_000, Payload::any(7u64));
            ctx.park_for_inbox();
            while ctx.try_recv().is_none() {
                ctx.park_for_inbox();
            }
        } else {
            loop {
                ctx.poll_point();
                if let Some(m) = ctx.try_recv() {
                    assert_eq!(m.src, 0);
                    break;
                }
                ctx.park_for_inbox();
            }
            ctx.send_msg(0, 8, 1_000, Payload::any(8u64));
        }
    }

    #[test]
    fn sim_fabric_ping_pong() {
        let r = Sim::new(2).run(|ctx: SimFabric| ping_pong(&ctx));
        assert_eq!(r.stats[0].msgs_sent, 1);
        assert_eq!(r.stats[1].msgs_sent, 1);
    }
}
