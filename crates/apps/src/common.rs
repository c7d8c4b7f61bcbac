//! Shared measurement plumbing for the applications.

use mpmd_fabric::Fabric;
use mpmd_sim::{
    Bucket, CostModel, Ctx, MetricsRegistry, Report, Sim, Snapshot, Stats, Time, TraceConfig,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Which language runtime an application run used.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Lang {
    SplitC,
    Ccxx,
}

impl Lang {
    pub fn label(self) -> &'static str {
        match self {
            Lang::SplitC => "split-c",
            Lang::Ccxx => "cc++",
        }
    }
}

/// Calibrated floating-point cost: ~100 MFLOPS, the class of the SP's
/// POWER2 nodes on these kernels. With this value the Split-C blocked LU of
/// a 512x512 matrix (2/3 n^3 ≈ 90 MFLOP) costs ≈ 0.9 s of cpu — the scale
/// of the paper's 0.81 s measurement.
pub const FLOP_NS: u64 = 10;

/// Charge application FP work.
#[inline]
pub fn charge_flops<F: Fabric>(ctx: &F, flops: u64) {
    ctx.charge(Bucket::Cpu, flops * FLOP_NS);
}

/// The five-component breakdown of one measured region, as the paper's
/// Figures 5 and 6 plot them.
#[derive(Clone, Debug)]
pub struct AppBreakdown {
    /// Wall (virtual) elapsed time of the region.
    pub elapsed: Time,
    /// Application FP/computation time (charged).
    pub cpu: Time,
    /// Messaging time: the residual of node-time not otherwise attributed
    /// (charged AM overheads + wire/idle), per the paper's methodology.
    pub net: Time,
    /// Thread creation + context switches (charged).
    pub thread_mgmt: Time,
    /// Lock/unlock/signal/wait time (charged).
    pub thread_sync: Time,
    /// Language-runtime overhead (charged).
    pub runtime: Time,
    /// Raw counters over the region.
    pub counts: Stats,
    /// Latency/occupancy distributions over the region, when the run had
    /// metrics enabled ([`CostModel::with_metrics`]); `None` otherwise.
    pub metrics: Option<MetricsRegistry>,
}

impl AppBreakdown {
    /// Derive a breakdown from an interval report.
    pub fn from_report(r: &Report) -> Self {
        AppBreakdown {
            elapsed: r.elapsed(),
            cpu: r.bucket_total(Bucket::Cpu),
            net: r.net_component(),
            thread_mgmt: r.bucket_total(Bucket::ThreadMgmt),
            thread_sync: r.bucket_total(Bucket::ThreadSync),
            runtime: r.bucket_total(Bucket::Runtime),
            counts: r.total_stats(),
            metrics: r.metrics.clone(),
        }
    }

    /// Sum of all components (total node-time).
    pub fn busy_total(&self) -> Time {
        self.cpu + self.net + self.thread_mgmt + self.thread_sync + self.runtime
    }

    /// Component vector in the paper's plotting order
    /// (cpu, net, thread mgmt, thread sync, runtime).
    pub fn components(&self) -> [Time; 5] {
        [
            self.cpu,
            self.net,
            self.thread_mgmt,
            self.thread_sync,
            self.runtime,
        ]
    }

    /// Per-unit scaling (e.g. per edge, per pair) of each component, in µs.
    pub fn per_unit_us(&self, units: u64) -> [f64; 5] {
        let u = units.max(1) as f64;
        self.components().map(|c| mpmd_sim::to_us(c) / u)
    }
}

/// A measured application run: the breakdown plus an application-specific
/// result used for correctness checking.
#[derive(Clone, Debug)]
pub struct AppRun<T> {
    pub breakdown: AppBreakdown,
    pub output: T,
}

impl<T> AppRun<T> {
    /// The same run with its output converted by `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> AppRun<U> {
        AppRun {
            breakdown: self.breakdown,
            output: f(self.output),
        }
    }
}

/// Execute `body` on a fresh simulated machine of `procs` nodes, returning
/// the value produced by node 0 (every other node must return `None`).
pub fn run_collect<T, F>(procs: usize, cost: CostModel, body: F) -> T
where
    T: Send + 'static,
    F: Fn(&Ctx) -> Option<T> + Send + Sync + 'static,
{
    run_collect_full(procs, cost, None, body).0
}

/// [`run_collect`] that also hands back the whole-run [`Report`] (cumulative
/// stats, metrics, and — when `trace` is given — the event trace for
/// [`mpmd_sim::fold_stacks`] / [`mpmd_sim::phase_profile`]).
pub fn run_collect_full<T, F>(
    procs: usize,
    cost: CostModel,
    trace: Option<TraceConfig>,
    body: F,
) -> (T, Report)
where
    T: Send + 'static,
    F: Fn(&Ctx) -> Option<T> + Send + Sync + 'static,
{
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let s2 = Arc::clone(&slot);
    let mut sim = Sim::new(procs).cost_model(cost);
    if let Some(tc) = trace {
        sim = sim.tracing(tc);
    }
    let report = sim.run(move |ctx| {
        if let Some(v) = body(&ctx) {
            let prev = s2.lock().replace(v);
            assert!(prev.is_none(), "two nodes produced a result");
        }
    });
    let out = Arc::try_unwrap(slot)
        .ok()
        .expect("simulation still holds the result slot")
        .into_inner()
        .expect("no node produced a result");
    (out, report)
}

/// Bracket a measured region: all nodes call this with a closure; node 0
/// receives `Some(interval report)`. The double barrier on each side keeps
/// other nodes quiescent while node 0 snapshots.
pub struct RegionTimer {
    start: Option<Snapshot>,
}

impl RegionTimer {
    /// Synchronize and begin the region (collective).
    pub fn start<F: Fabric, B: Fn(&F)>(ctx: &F, barrier: B) -> Self {
        barrier(ctx);
        let start = if ctx.node() == 0 {
            Some(ctx.snapshot())
        } else {
            None
        };
        barrier(ctx);
        RegionTimer { start }
    }

    /// Synchronize and end the region (collective); node 0 gets the report.
    pub fn stop<F: Fabric, B: Fn(&F)>(self, ctx: &F, barrier: B) -> Option<Report> {
        barrier(ctx);
        let out = self.start.map(|s| {
            let end = ctx.snapshot();
            s.until(&end)
        });
        barrier(ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_collect_returns_node0_value() {
        let v = run_collect(3, CostModel::default(), |ctx| {
            if ctx.node() == 0 {
                Some(42u32)
            } else {
                None
            }
        });
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "no node produced a result")]
    fn run_collect_requires_a_result() {
        let _: u32 = run_collect(2, CostModel::default(), |_| None);
    }

    #[test]
    fn breakdown_components_sum() {
        let b = AppBreakdown {
            elapsed: 100,
            cpu: 10,
            net: 20,
            thread_mgmt: 5,
            thread_sync: 5,
            runtime: 10,
            counts: Stats::default(),
            metrics: None,
        };
        assert_eq!(b.busy_total(), 50);
        assert_eq!(b.components(), [10, 20, 5, 5, 10]);
        let per = b.per_unit_us(10);
        assert!((per[0] - 0.001).abs() < 1e-9);
    }

    #[test]
    fn flop_charge_scales() {
        let r = Sim::new(1).run(|ctx| {
            charge_flops(&ctx, 1_000);
        });
        assert_eq!(r.elapsed(), 10_000);
    }
}
