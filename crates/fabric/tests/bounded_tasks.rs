//! Tasks are pooled and their records dropped on exit: a run that spawns and
//! joins tens of thousands of tasks one after another holds a constant
//! number of OS threads and a task table no larger than the live set.
//!
//! One test per binary on purpose — the OS-thread count is a property of the
//! whole process, and tests of one binary run on parallel threads.

#![cfg(target_os = "linux")]

use mpmd_fabric::{Fabric, LocalFabric};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Spawn/join pairs in one run; the release-mode CI line runs the full size.
const SPAWNS: usize = if cfg!(debug_assertions) {
    5_000
} else {
    50_000
};

/// A sequential spawn/join loop adds two OS threads to the process: the root
/// and one worker, reused for every task because it lists itself idle before
/// its exit wakes the joiner. The slack is for threads the test harness
/// itself may start meanwhile, not for the pool.
const THREAD_SLACK: usize = 4;

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

#[test]
fn sequential_spawn_joins_hold_threads_and_table_constant() {
    let before = os_threads();
    let ran = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let (ran2, peak2) = (Arc::clone(&ran), Arc::clone(&peak));
    LocalFabric::run(1, move |fab| {
        let mut first = None;
        for i in 0..SPAWNS {
            let ran = Arc::clone(&ran2);
            let t = fab.spawn("w", move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            fab.join(t);
            assert!(fab.is_finished(t));
            first.get_or_insert(t);
            if i % 64 == 0 {
                peak2.fetch_max(os_threads(), Ordering::Relaxed);
                // This root, plus at most the record of the task just joined:
                // a `join` that finds it finished can return before the
                // worker has dropped it.
                assert!(fab.debug_task_records() <= 2, "task table grows");
            }
        }
        // A task whose record was dropped ~SPAWNS spawns ago still reads
        // as finished, joins at once and swallows an unpark.
        let first = first.expect("SPAWNS > 0");
        assert!(fab.is_finished(first));
        fab.join(first);
        fab.unpark(first);
    });
    assert_eq!(ran.load(Ordering::Relaxed), SPAWNS);
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= before + 2 + THREAD_SLACK,
        "{peak} OS threads at peak, {before} before the run"
    );
}
