//! # mpmd-fabric — the wall-clock backend of the [`Fabric`] contract
//!
//! Everything the messaging layer (`mpmd-am`), the threads package
//! (`mpmd-threads`) and the two language runtimes (`mpmd-splitc`,
//! `mpmd-ccxx`) need from the machine underneath is one trait, [`Fabric`],
//! defined in `mpmd-sim` next to the types it is written in and re-exported
//! here unchanged. The layers above are generic over `F: Fabric` with
//! **static dispatch**.
//!
//! Two implementations exist:
//!
//! * [`SimFabric`] — an alias for [`mpmd_sim::Ctx`], the deterministic
//!   virtual-time kernel, which implements the trait directly.
//! * [`LocalFabric`] — defined here: a wall-clock backend that gives each
//!   node one OS thread, runs the node's tasks on it as run-until-block
//!   fibers, and carries frames over per-link rings, so the same
//!   benchmarks (null-RMI, fig5 exchanges, EM3D ghost traffic) execute on
//!   real hardware and report measured nanoseconds.

mod local;

pub use local::{LocalFabric, LocalFabricBuilder};
pub use mpmd_sim::{Ctx as SimFabric, Fabric, SpanGuard, WaitPhase, WaitPolicy, Waiter};

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::{Payload, Sim};

    // One generic body through the trait surface on the simulated fabric
    // (LocalFabric runs the same shape in local.rs tests).
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
