//! Quickstart: a null remote method invocation between two processor
//! objects, timed on the simulated multicomputer, plus the equivalent
//! Split-C access — the paper's comparison in 60 lines.
//!
//! Run with: `cargo run --example quickstart`

use mpmd_repro::ccxx::{self, CallMode, CcxxConfig};
use mpmd_repro::sim::{to_us, Fabric, Sim};
use mpmd_repro::splitc;

fn main() {
    println!("== CC++ (MPMD): a remote method invocation ==");
    Sim::new(2).run(|ctx| {
        // Initialize the lean CC++ runtime (ThAM) on every node.
        ccxx::init(&ctx, CcxxConfig::tham());

        // Node 1 plays the "server" processor object: register a method.
        ccxx::register_method(&ctx, "hello", |_ctx, args| {
            ccxx::RmiRet::of_words([args.words[0] * 2, 0, 0, 0])
        });
        ccxx::barrier(&ctx);

        if ctx.node() == 0 {
            // First call is "cold": the method name ships with the message
            // and resolution happens remotely.
            let t0 = ctx.now();
            let r = ccxx::rmi(&ctx, 1, "hello", &[21], None, CallMode::Blocking);
            println!(
                "  cold call : {:>6.1} µs -> {}",
                to_us(ctx.now() - t0),
                r.words[0]
            );

            // Second call hits the method stub cache.
            let t1 = ctx.now();
            let r = ccxx::rmi(&ctx, 1, "hello", &[34], None, CallMode::Blocking);
            println!(
                "  warm call : {:>6.1} µs -> {}",
                to_us(ctx.now() - t1),
                r.words[0]
            );
        }
        ccxx::finalize(&ctx);
    });

    println!("== Split-C (SPMD): the equivalent global-pointer read ==");
    Sim::new(2).run(|ctx| {
        splitc::init(&ctx);
        let a = splitc::all_spread_alloc(&ctx, 4, 0.0);
        splitc::write(&ctx, a.node_chunk(1).add(1), 42.0); // element on node 1
        splitc::barrier(&ctx);
        if ctx.node() == 0 {
            let t0 = ctx.now();
            let v = splitc::read(&ctx, a.node_chunk(1).add(1));
            println!("  gp read   : {:>6.1} µs -> {}", to_us(ctx.now() - t0), v);
        }
        splitc::barrier(&ctx);
    });

    println!();
    println!("The gap between those two numbers — method dispatch, thread");
    println!("management, thread-safe runtime locking, marshalling — is what");
    println!("the paper quantifies. Run `cargo run --release -p mpmd-bench");
    println!("--bin table4` for the full micro-benchmark suite.");
}
