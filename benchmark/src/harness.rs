//! Shared plumbing: run configuration, what a repetition returns, the
//! per-rep watchdog, and the two-node LocalFabric scaffold every wall-clock
//! rung runs on.

use crate::spans::{now_ns, Recorder};
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::Report;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seeds EM3D/Water/LU inputs, store offsets and payload values. The
    /// program under test sees only the generated inputs.
    pub seed: u64,
    /// Record spans and run the full ladder (the per-layer run).
    pub trace: bool,
    /// Smoke sizes: every path runs, no number is comparable.
    pub quick: bool,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// A rep still running after this long is declared hung.
    pub watchdog: Duration,
}

/// What one repetition of a workload (or one pass over the ladder) produced.
/// Every value is a per-rep statistic; the runner reports its median across
/// repetitions.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    pub values: Vec<(&'static str, f64)>,
    /// Operations started, and those that failed, returned a wrong value or
    /// were lost.
    pub attempted: u64,
    pub failed: u64,
    /// Result digest of a simulator rep; must equal rep 1's.
    pub digest: Option<u64>,
}

impl RepOut {
    pub fn put(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// How node threads started by a rung record their spans.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub trace: bool,
    /// The rep/rung span on the calling thread that causes the node threads.
    pub cause: Option<String>,
}

impl Probe {
    pub fn of(rec: &Recorder) -> Self {
        Probe {
            trace: rec.is_on(),
            cause: rec.current_ref(),
        }
    }

    pub fn recorder(&self, thread: &str) -> Recorder {
        Recorder::new(self.trace, thread, self.cause.clone())
    }
}

static STAGE: Mutex<String> = Mutex::new(String::new());

/// Name the rung about to run, so a hang or panic can say where it was.
pub fn stage(name: &str) {
    *STAGE.lock().expect("stage label poisoned") = name.to_string();
}

pub fn current_stage() -> String {
    STAGE.lock().expect("stage label poisoned").clone()
}

#[derive(Debug, PartialEq, Eq)]
pub enum Failure {
    /// Still running at the deadline. Its threads cannot be stopped; the
    /// caller must write what it has and end the process.
    Hung {
        stage: String,
        after: Duration,
    },
    Panicked {
        stage: String,
        message: String,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Hung { stage, after } => {
                write!(f, "hung in {stage:?} (no result after {after:?})")
            }
            Failure::Panicked { stage, message } => write!(f, "panicked in {stage:?}: {message}"),
        }
    }
}

/// Run `f` on its own thread under a deadline. A LocalFabric node that
/// panics leaves its peers parked forever (`LocalFabric::run` never returns),
/// so a rep is never run on the thread that must report the result.
pub fn guarded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Failure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("rep".into())
        .spawn(move || {
            // A send can only fail if the receiver gave up at the deadline.
            let _ = tx.send(f());
        })
        .expect("OS thread spawn failed");
    match rx.recv_timeout(limit) {
        Ok(v) => {
            handle.join().expect("rep thread sent its result");
            Ok(v)
        }
        Err(RecvTimeoutError::Timeout) => Err(Failure::Hung {
            stage: current_stage(),
            after: limit,
        }),
        Err(RecvTimeoutError::Disconnected) => {
            let message = match handle.join() {
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into()),
                Ok(()) => "rep thread ended without a result".into(),
            };
            Err(Failure::Panicked {
                stage: current_stage(),
                message,
            })
        }
    }
}

/// Run a client on node 0 and a server on node 1; returns the client's
/// result and the fabric's report.
pub fn client_server<T, C, S>(fabric: LocalFabricBuilder, client: C, server: S) -> (T, Report)
where
    T: Send + 'static,
    C: Fn(&LocalFabric) -> T + Send + Sync + 'static,
    S: Fn(&LocalFabric) + Send + Sync + 'static,
{
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let s2 = Arc::clone(&slot);
    let report = fabric.run(move |ctx| {
        if ctx.node() == 0 {
            let out = client(&ctx);
            *s2.lock().expect("client slot poisoned") = Some(out);
        } else {
            server(&ctx);
        }
    });
    let out = slot
        .lock()
        .expect("client slot poisoned")
        .take()
        .expect("node 0 returned no result");
    (out, report)
}

/// One timed closed loop: `warm` untimed calls, then `n` calls each timed
/// with its own `Instant` pair (and, when tracing, its own span).
#[derive(Clone, Debug, Default)]
pub struct Loop {
    /// Per-call latency in ns, in call order.
    pub samples: Vec<u64>,
    /// Wall time of the timed loop, first call to last return.
    pub wall_ns: u64,
    /// Calls whose result was wrong.
    pub bad: u64,
    /// Duration of the very first (cold) call, warm-up included.
    pub first_ns: u64,
}

impl Loop {
    pub fn per_s(&self) -> f64 {
        self.samples.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// `op(i)` returns whether call `i` produced the right answer.
pub fn timed_loop(
    rec: &mut Recorder,
    name: &'static str,
    warm: usize,
    n: usize,
    mut op: impl FnMut(usize) -> bool,
) -> Loop {
    let mut out = Loop {
        samples: Vec::with_capacity(n),
        ..Loop::default()
    };
    for i in 0..warm {
        let t = now_ns();
        let ok = op(i);
        if i == 0 {
            out.first_ns = now_ns() - t;
        }
        out.bad += u64::from(!ok);
    }
    let rung = rec.open("bench.rung");
    let t0 = now_ns();
    for i in warm..warm + n {
        let (ok, ns) = rec.timed(name, || op(i));
        out.samples.push(ns);
        out.bad += u64::from(!ok);
    }
    out.wall_ns = now_ns() - t0;
    rec.close(rung);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_returns_the_value() {
        assert_eq!(guarded(Duration::from_secs(5), || 41 + 1), Ok(42));
    }

    #[test]
    fn guarded_reports_a_panic_with_its_stage() {
        stage("test/panicking-rung");
        let r: Result<(), _> = guarded(Duration::from_secs(5), || panic!("node 1 died"));
        match r {
            Err(Failure::Panicked { stage, message }) => {
                assert_eq!(stage, "test/panicking-rung");
                assert!(message.contains("node 1 died"), "{message}");
            }
            other => panic!("expected a panic report, got {other:?}"),
        }
    }

    #[test]
    fn guarded_gives_up_on_a_hung_rep() {
        let (tx, rx) = mpsc::channel::<()>();
        let r = guarded(Duration::from_millis(50), move || {
            // Parked like a LocalFabric peer whose partner died.
            let _ = rx.recv();
        });
        assert!(matches!(r, Err(Failure::Hung { .. })), "{r:?}");
        drop(tx); // let the stuck thread go
    }

    #[test]
    fn timed_loop_counts_samples_and_wrong_answers() {
        let mut rec = Recorder::new(false, "t", None);
        let l = timed_loop(&mut rec, "am.rtt", 3, 10, |i| i % 5 != 0);
        assert_eq!(l.samples.len(), 10);
        // i = 0 (warm-up), 5 and 10 are wrong.
        assert_eq!(l.bad, 3);
        assert!(l.wall_ns >= l.samples.iter().sum::<u64>());
        assert!(l.per_s() > 0.0);
    }

    #[test]
    fn client_server_runs_both_sides() {
        let (v, report) = client_server(
            LocalFabricBuilder::new(2),
            |ctx| {
                ctx.send_msg(1, 8, 0, mpmd_sim::Payload::any(5u64));
                7u32
            },
            |ctx| loop {
                if ctx.try_recv().is_some() {
                    break;
                }
                ctx.park_for_inbox();
            },
        );
        assert_eq!(v, 7);
        assert_eq!(report.total_stats().msgs_sent, 1);
    }
}
