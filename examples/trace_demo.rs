//! Structured tracing end to end: trace one blocking null RMI between two
//! nodes, print its span timeline with per-frame self-time, and write a
//! Chrome `trace_event` file loadable in Perfetto (<https://ui.perfetto.dev>).
//!
//! Run with `cargo run --release --example trace_demo`.

use mpmd_repro::ccxx::{self, CallMode, CcxxConfig};
use mpmd_repro::sim::{to_us, Fabric, Sim, TraceConfig};

fn main() {
    let report = Sim::new(2).tracing(TraceConfig::new()).run(|ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        ccxx::barrier(&ctx);
        if ctx.node() == 0 {
            let r = ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Blocking);
            assert_eq!(r.words, [0; 4]);
        }
        ccxx::barrier(&ctx);
        ccxx::finalize(&ctx);
    });

    let log = report.trace.expect("tracing was enabled");
    println!("span timeline (one blocking null RMI, node 0 -> node 1):");
    let mut spans = log.spans();
    spans.sort_by_key(|s| (s.start, s.node));
    for s in &spans {
        println!(
            "  t={:8.3}us node {} {:indent$}{:<14} dur={:6.3}us self-charged={:.3}us",
            to_us(s.start),
            s.node,
            "",
            s.name,
            to_us(s.duration()),
            to_us(s.charged_ns),
            indent = s.depth * 2,
        );
    }
    println!(
        "events collected: {} (dropped: {})",
        log.events().count(),
        log.total_dropped()
    );

    let path = "results/trace_demo.json";
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(path, log.to_chrome_trace()).unwrap();
    println!("wrote {path} -- load it at https://ui.perfetto.dev");
}
