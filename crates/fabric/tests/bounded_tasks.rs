//! Tasks are fibers of their node's one OS thread and their records are
//! dropped on exit: a run of N nodes holds exactly N OS threads whatever it
//! spawns — tens of thousands of tasks one after another, or thousands at
//! once — and a task table no larger than the live set. The simulator keeps
//! the same table, and the spawn/join half runs on it too.
//!
//! One test per binary on purpose — the OS-thread count is a property of the
//! whole process, and tests of one binary run on parallel threads.

#![cfg(target_os = "linux")]

use mpmd_fabric::{Fabric, LocalFabric, SimFabric};
use mpmd_sim::Sim;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Whether this build hosts tasks on fibers. Where it does not, a live task
/// borrows a pooled OS thread: the thread counts are not asserted there and
/// the wave is kept narrow, the bounds on the task table hold as they are.
const FIBERS: bool = matches!(mpmd_sim::baton::BACKEND, mpmd_sim::BackendKind::Fibers);

const FULL: bool = !cfg!(debug_assertions);

/// Spawn/join pairs in one run; the release-mode CI line runs the full size.
const SPAWNS: usize = if FULL { 50_000 } else { 5_000 };

/// Tasks of one `parfor`-style wave, all alive at once.
const WIDTH: usize = match (FIBERS, FULL) {
    (true, true) => 5_000,
    (true, false) => 1_000,
    (false, _) => 200,
};

/// Fails unless the process holds exactly `expect` OS threads.
fn assert_threads(expect: usize, what: &str) {
    if FIBERS {
        assert_eq!(os_threads(), expect, "{what}");
    }
}

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// `SPAWNS` spawn/join pairs from `fab`'s task, whose run holds `threads` OS
/// threads: after each join the node's table (`records`) holds that task
/// alone.
fn spawn_join<F: Fabric>(
    fab: &F,
    records: fn(&F) -> usize,
    threads: usize,
    ran: &Arc<AtomicUsize>,
) {
    let mut first = None;
    for i in 0..SPAWNS {
        let ran = Arc::clone(ran);
        let t = fab.spawn("w", move |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        fab.join(t);
        assert!(fab.is_finished(t));
        first.get_or_insert(t);
        if i % 64 == 0 {
            assert_threads(threads, "a spawn/join took a thread");
            // This root alone: a joined task's record is gone.
            assert_eq!(records(fab), 1, "task table grows");
        }
    }
    // A task whose record was dropped ~SPAWNS spawns ago still reads as
    // finished, joins at once and swallows an unpark.
    let first = first.expect("SPAWNS > 0");
    assert!(fab.is_finished(first));
    fab.join(first);
    fab.unpark(first);
}

#[test]
fn a_run_holds_one_thread_per_node_and_a_table_of_the_live_set() {
    let before = os_threads();
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    LocalFabric::run(1, move |fab| {
        spawn_join(&fab, LocalFabric::debug_task_records, before + 1, &ran2)
    });
    assert_eq!(ran.load(Ordering::Relaxed), SPAWNS);
    assert_threads(before, "the run left a thread behind");

    // The simulator runs its tasks on the caller's thread.
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    Sim::new(1).run(move |ctx| spawn_join(&ctx, SimFabric::debug_task_records, before, &ran2));
    assert_eq!(ran.load(Ordering::Relaxed), SPAWNS);

    // A wave: every body is alive, and blocked, before the first finishes.
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    LocalFabric::run(2, move |fab| {
        if fab.node() == 1 {
            return;
        }
        let wave: Vec<_> = (0..WIDTH)
            .map(|_| {
                let ran = Arc::clone(&ran2);
                fab.spawn("body", move |c| {
                    c.park();
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        // Lets every body run up to its `park`.
        fab.yield_now();
        assert_eq!(fab.debug_task_records(), WIDTH + 1);
        assert_threads(before + 2, "live tasks took threads");
        for t in &wave {
            fab.unpark(*t);
        }
        for t in wave {
            fab.join(t);
        }
        assert_threads(before + 2, "joined tasks kept threads");
        assert_eq!(fab.debug_task_records(), 1);
    });
    assert_eq!(ran.load(Ordering::Relaxed), WIDTH);
    assert_threads(before, "the run left a thread behind");
}
