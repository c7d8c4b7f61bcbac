//! The counting allocator behind the zero-allocation proofs.
//!
//! A test, bench or bin installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
//! brackets the measured window with two [`thread_allocs`] reads.
//!
//! The count is **per thread**, kept in const-initialized native TLS (a
//! plain `Cell<u64>` with no destructor, so bumping it never itself
//! allocates). Counting per thread rather than process-wide is deliberate.
//! The libtest harness's main thread sits in `mpsc::Receiver::recv` waiting
//! for the test to finish, and the first time that recv actually *blocks*
//! the standard library lazily allocates its per-thread channel `Context`
//! (exactly two small allocations, 48 + 96 bytes). Whether the harness
//! thread reaches the blocking path before or after the measured window
//! opens is an OS-scheduling race; with a process-wide counter the proof
//! failed roughly every other run. Criterion's helper threads race the same
//! way. Under the simulator's fiber backend the entire simulation — engine
//! and every task — runs on the `Sim::run` thread, so the per-thread count
//! still covers every simulator allocation; under the threads backend, and
//! on `LocalFabric` where a task *is* an OS thread, it pins the claim to the
//! measuring task's thread, which executes the full send/park/recv path
//! being proven.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread count of allocation calls.
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bump this thread's count. `try_with` so a (hypothetical) allocation
/// during TLS teardown cannot panic inside the allocator.
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) this thread has
/// made so far. Always 0 unless [`CountingAlloc`] is the global allocator.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
