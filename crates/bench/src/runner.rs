//! Parallel experiment runner: fan independent `Sim` runs across a scoped
//! thread pool.
//!
//! Every experiment configuration is an isolated simulation — no shared
//! state, a deterministic virtual-time result — so a sweep like Figure 5's
//! 24 configurations is embarrassingly parallel. [`run_jobs`] executes a
//! list of boxed work units on up to `jobs` OS threads and returns results
//! **in submission order** regardless of completion order, so tables and
//! `--json` files are byte-identical to a sequential run. All experiment
//! binaries accept `-j N` / `--jobs N` (parsed by [`take_jobs_flag`]),
//! defaulting to the machine's available parallelism.
//!
//! Worker counts above the machine's available parallelism are clamped:
//! every simulation is CPU-bound and internally serialized by the baton
//! protocol, so oversubscribing cores cannot increase throughput — it only
//! adds OS scheduler churn (measurably so on small machines). `-j` is
//! therefore an upper bound, never a demand.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// A single unit of experiment work producing one result.
pub type Unit<R> = Box<dyn FnOnce() -> R + Send>;

/// Lock ignoring poisoning: the pool catches unit panics before they can
/// unwind through a held guard, and a poisoned queue or slot must not
/// replace the original panic message with `PoisonError`'s.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `units` on up to `jobs` worker threads (clamped to
/// [`default_jobs`]), returning the results in the order the units were
/// supplied (index-addressed slots, not completion order).
pub fn run_jobs<R: Send>(units: Vec<Unit<R>>, jobs: usize) -> Vec<R> {
    pool(units, jobs.min(default_jobs()), |u| u())
}

/// [`run_jobs`] for mapping a plain function over owned items: the same
/// ordering and clamping.
pub fn map_jobs<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    pool(items, jobs.min(default_jobs()), f)
}

/// The one worker pool behind [`run_jobs`] and [`map_jobs`], without the
/// available-parallelism clamp. Exercised directly by tests so the
/// multi-worker path is covered even on one-CPU machines. One worker, or one
/// item, runs everything inline on the calling thread with no pool at all.
///
/// A panicking `f` is caught on its worker, recorded (first panic wins),
/// and re-raised on the calling thread with its original payload — exactly
/// the message a sequential run would show. Letting the panic unwind the
/// worker instead would poison the shared queue and surface as
/// `std::thread::scope`'s generic "a scoped thread panicked", masking the
/// real failure. Remaining workers drain out without starting new items.
fn pool<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let f = &f;
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let first_panic = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                if lock(&first_panic).is_some() {
                    return;
                }
                let next = lock(&queue).pop_front();
                let Some((i, item)) = next else { return };
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => *lock(&slots[i]) = Some(r),
                    Err(p) => {
                        lock(&first_panic).get_or_insert(p);
                        return;
                    }
                }
            });
        }
    });
    if let Some(p) = lock(&first_panic).take() {
        resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|m| {
            lock(&m)
                .take()
                .expect("work unit completed without a result")
        })
        .collect()
}

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split a `-j N` / `--jobs N` (also `-jN`, `--jobs=N`) flag off a raw
/// argument list, returning the remaining arguments and the requested
/// worker count (defaulting to [`default_jobs`] when the flag is absent).
/// The available-parallelism clamp is applied by [`run_jobs`]/[`map_jobs`],
/// not here, so flag parsing is machine-independent.
pub fn take_jobs_flag(args: impl Iterator<Item = String>) -> (Vec<String>, usize) {
    let mut rest = Vec::new();
    let mut jobs = None;
    let mut args = args.peekable();
    let parse = |s: &str| -> usize {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid job count '{s}'");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        if a == "-j" || a == "--jobs" {
            let Some(v) = args.next() else {
                eprintln!("error: {a} requires a count argument");
                std::process::exit(2);
            };
            jobs = Some(parse(&v));
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = Some(parse(v));
        } else if let Some(v) = a.strip_prefix("-j").filter(|v| !v.is_empty()) {
            jobs = Some(parse(v));
        } else {
            rest.push(a);
        }
    }
    (rest, jobs.unwrap_or_else(default_jobs).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_submission_order() {
        // Drive the unclamped pool path so multi-worker reassembly is
        // tested even when the host has a single CPU.
        for workers in [1, 2, 8] {
            let units: Vec<Unit<usize>> = (0..32usize)
                .map(|i| {
                    Box::new(move || {
                        // Stagger completion so out-of-order finishes would
                        // be caught by the order assertion below.
                        std::thread::sleep(std::time::Duration::from_micros(
                            ((i * 37) % 13) as u64,
                        ));
                        i
                    }) as Unit<usize>
                })
                .collect();
            assert_eq!(pool(units, workers, |u| u()), (0..32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_jobs_matches_sequential_map() {
        let items: Vec<u64> = (0..20).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(map_jobs(items, 4, |x| x * x), seq);
    }

    #[test]
    fn worker_panic_surfaces_original_message() {
        let units: Vec<Unit<usize>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("unit 3 exploded");
                    }
                    i
                }) as Unit<usize>
            })
            .collect();
        let payload = catch_unwind(AssertUnwindSafe(|| pool(units, 4, |u| u()))).unwrap_err();
        // The caller sees the unit's own panic payload, not scope's generic
        // "a scoped thread panicked" or a PoisonError.
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 3 exploded"));
    }

    #[test]
    fn map_jobs_panic_surfaces_original_message() {
        let items: Vec<u64> = (0..8).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            map_jobs(items, 4, |x| {
                assert_ne!(x, 5, "item 5 rejected");
                x
            })
        }))
        .unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("item 5 rejected"), "got: {msg}");
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |argv: &[&str]| take_jobs_flag(argv.iter().map(|s| s.to_string()));
        let (rest, j) = parse(&["--quick", "-j", "4"]);
        assert_eq!(rest, vec!["--quick"]);
        assert_eq!(j, 4);
        let (_, j) = parse(&["-j8"]);
        assert_eq!(j, 8);
        let (_, j) = parse(&["--jobs=2"]);
        assert_eq!(j, 2);
        let (_, j) = parse(&["--jobs", "16"]);
        assert_eq!(j, 16);
        let (rest, j) = parse(&["--jobs", "0"]);
        assert!(rest.is_empty());
        assert_eq!(j, 1, "zero clamps to one worker");
        let (rest, _) = parse(&[]);
        assert!(rest.is_empty());
    }
}
