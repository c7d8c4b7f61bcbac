//! Userspace stackful fibers: the task host on x86-64 unix.
//!
//! Every task of a baton runs as a *fiber* (a coroutine with its own call
//! stack) hosted on the one OS thread that owns the baton — the thread that
//! called `Sim::run`, or a `LocalFabric` node's thread — and a baton hand-off
//! is a ~20-instruction userspace stack switch, no futex and no kernel. The
//! baton protocol is the one `pool.rs` runs on OS threads elsewhere: at any
//! instant exactly one of {engine, one task} executes, so scheduling
//! decisions, event order and every virtual-time result are bit-for-bit
//! those of that host.
//!
//! Mechanics: [`fiber_switch`](mpmd_fiber_switch) saves the callee-saved
//! registers and the FP control words on the current stack, stores the stack
//! pointer into the suspending context's cell, and restores the target
//! context's stack pointer — the System V equivalent of the classic
//! Boost.Context switch. A new fiber's stack is pre-seeded with a frame
//! whose return address is a trampoline that invokes the task body; a
//! finishing fiber performs a terminal switch after pushing its own stack
//! onto the runtime's retired slot, and whichever context runs next reaps it
//! onto the runtime's free list. A spawn draws its stack from that list, then
//! from the process-wide spare list that dropped runtimes hand theirs to
//! (`SPARE`), and only then from the allocator. Once warm a spawn allocates
//! no stack, but still three small blocks: the body box, the `TaskCell` `Arc`
//! and the `FiberBody` box.
//!
//! Safety rests entirely on the baton invariant: all fibers of one
//! [`FiberRt`] — one `Sim`, or one `LocalFabric` node — run on one OS
//! thread, one at a time, so the raw stack-pointer cells are never touched
//! concurrently.

use crate::baton::{BackendKind, Core};
use crate::task::TaskBody;
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::{Arc, Mutex, PoisonError};

/// This build's host.
pub const BACKEND: BackendKind = BackendKind::Fibers;

/// A task's context here: its saved stack pointer and its stack.
pub type TaskCell = FiberCell;

/// Reserved bytes per fiber stack. Address space only — the backing pages
/// are untouched until the task actually recurses into them, so deep stacks
/// cost nothing for the shallow tasks that dominate (AM handlers, pumps).
/// Matches the `std::thread` default so moving a body between hosts
/// cannot change its headroom.
const STACK_SIZE: usize = 2 * 1024 * 1024;

/// How many stacks [`SPARE`] keeps between runs; a dropping runtime frees
/// what would not fit. Wider than the widest wave in the tree (a 4-node
/// EM3D ghost phase holds about 800 live fibers on the simulator's one
/// runtime), and `SPARE_CAP * STACK_SIZE` = 2 GiB of address space, of which
/// only the pages fibers touched are resident.
const SPARE_CAP: usize = 1024;

/// Stacks no runtime holds. A [`FiberRt`] whose own free list is empty takes
/// one from here before it allocates, and a dropping runtime hands its
/// stacks here, canary-checked; so a run starts on the stacks, already
/// faulted in, of the runs before it instead of allocating, touching and
/// freeing its widest wave again.
static SPARE: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

/// Written at the low end of every stack; see [`Stack::overflowed_by`].
const CANARY: u64 = 0x5AFE_57AC_C0DE_CAFE;

/// One fiber stack: a heap block, uninitialized but for the canary word at
/// its low end. Never read by Rust code otherwise — only the switch assembly
/// and the code running on it touch the bytes.
struct Stack {
    mem: Box<[MaybeUninit<u8>]>,
    /// `(node, task)` of the fiber the stack was last prepared for: what an
    /// overflow report names.
    owner: (usize, u32),
}

impl Stack {
    fn new() -> Stack {
        let mut mem = Box::new_uninit_slice(STACK_SIZE);
        // The allocator aligns a block of this size to 16 at least.
        let canary = mem.as_mut_ptr().cast::<u64>();
        assert_eq!(canary as usize % 8, 0, "stack block misaligned");
        // SAFETY: the block is STACK_SIZE >= 8 bytes long and 8-aligned.
        unsafe { canary.write(CANARY) };
        Stack { mem, owner: (0, 0) }
    }

    /// 16-byte-aligned one-past-the-end, per the System V stack discipline.
    fn top(&self) -> usize {
        (self.mem.as_ptr() as usize + self.mem.len()) & !15
    }

    /// The fiber that ran past the low end of this stack, if one did. A heap
    /// stack has no guard page: an overflow writes into the neighbouring
    /// allocation, and the canary is the first word it crosses on the way.
    fn overflowed_by(&self) -> Option<(usize, u32)> {
        // SAFETY: written in `new`; nothing legitimate writes it afterwards.
        let word = unsafe { self.mem.as_ptr().cast::<u64>().read() };
        (word != CANARY).then_some(self.owner)
    }
}

fn overflow_message(fabric: &str, (node, task): (usize, u32)) -> String {
    format!(
        "fiber stack overflow on the {fabric} fabric: task {task} of node {node} ran past \
         its {STACK_SIZE}-byte stack"
    )
}

/// Abort, naming the culprit, rather than run on with the heap an
/// overflowing fiber wrote into.
fn overflow_abort(fabric: &str, owner: (usize, u32)) -> ! {
    eprintln!("{}; aborting", overflow_message(fabric, owner));
    std::process::abort();
}

// The switch routine and the entry trampoline. Layout contract with
// `seed_frame` below, from the saved stack pointer upward:
//
//   [sp + 0]  mxcsr (4 bytes) | x87 control word (2 bytes) | pad
//   [sp + 8]  r15, r14, r13, r12, rbx, rbp   (six 8-byte slots)
//   [sp + 56] return address
//
// At the return address the stack pointer is `sp + 64`; frames are placed
// so that value is ≡ 8 (mod 16), exactly as if the resumed code had been
// reached by a `call`.
core::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl mpmd_fiber_switch",
    ".hidden mpmd_fiber_switch",
    ".type mpmd_fiber_switch,@function",
    "mpmd_fiber_switch:",
    // rdi: *mut usize — where to store the suspending context's rsp
    // rsi: usize     — the resuming context's saved rsp
    // rdx: usize     — value handed to the resumed context (in rax)
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "mov rax, rdx",
    "ret",
    ".size mpmd_fiber_switch, . - mpmd_fiber_switch",
    ".balign 16",
    ".globl mpmd_fiber_start",
    ".hidden mpmd_fiber_start",
    ".type mpmd_fiber_start,@function",
    "mpmd_fiber_start:",
    // First entry into a fresh fiber: seed_frame parked the body pointer in
    // the r12 slot. We arrive via `ret` with call-entry alignment
    // (rsp ≡ 8 mod 16), so realign before issuing our own call.
    // mpmd_fiber_entry never returns.
    "sub rsp, 8",
    "mov rdi, r12",
    "call mpmd_fiber_entry",
    "ud2",
    ".size mpmd_fiber_start, . - mpmd_fiber_start",
);

extern "C" {
    fn mpmd_fiber_switch(save: *mut usize, target: usize, arg: usize) -> usize;
    fn mpmd_fiber_start();
}

/// Capture the current FP environment so a fresh fiber starts with the same
/// rounding/precision modes as the code that spawned it.
fn fp_env() -> (u32, u16) {
    let mut mxcsr: u32 = 0;
    let mut fcw: u16 = 0;
    unsafe {
        core::arch::asm!(
            "stmxcsr [{m}]",
            "fnstcw [{f}]",
            m = in(reg) &mut mxcsr,
            f = in(reg) &mut fcw,
            options(nostack),
        );
    }
    (mxcsr, fcw)
}

/// Per-task fiber context: the saved stack pointer while suspended, and the
/// owned stack; [`Default`] is a parked one with neither. Shared via `Arc`
/// from its node's task table; only ever touched by the simulation's single
/// OS thread (baton invariant), hence the unsafe `Send`/`Sync`.
#[derive(Default)]
pub struct FiberCell {
    sp: Cell<usize>,
    stack: UnsafeCell<Option<Stack>>,
}

unsafe impl Send for FiberCell {}
unsafe impl Sync for FiberCell {}

/// Everything a fresh fiber needs: the task body (which performs all kernel
/// bookkeeping, picks the successor, and never unwinds), the handles for
/// the terminal switch, and `owner`, the task the baton records it as.
struct FiberBody {
    body: TaskBody,
    rt: Arc<FiberRt>,
    cell: Arc<TaskCell>,
    owner: (usize, u32),
}

/// The host of one baton's contexts: its fiber runtime.
pub(crate) struct Host(Arc<FiberRt>);

impl Host {
    /// A runtime whose fibers hold `baton`; `fabric` names the scheduler in
    /// a stack-overflow report.
    pub(crate) fn new(fabric: &'static str, baton: Arc<Core>) -> Host {
        Host(Arc::new(FiberRt::new(fabric, baton)))
    }

    /// Seed a stack for `cell` so the first switch into it runs `body` as
    /// task `owner` = `(node, task)`. No switch happens here.
    pub(crate) fn start(&self, cell: Arc<TaskCell>, body: TaskBody, owner: (usize, u32)) {
        let rt = &self.0;
        let mut stack = rt.alloc_stack();
        stack.owner = owner;
        let body = Box::new(FiberBody {
            body,
            rt: Arc::clone(rt),
            cell: Arc::clone(&cell),
            owner,
        });
        cell.sp.set(seed_frame(&stack, Box::into_raw(body)));
        unsafe { *cell.stack.get() = Some(stack) };
    }

    /// Baton handoff between two suspended-or-running contexts, `None`
    /// being the engine (the OS thread's own stack). Returns when `from` is
    /// switched back to — for the engine that is termination, deadlock,
    /// shutdown or a panic; a fiber on the deadlock path never returns.
    pub(crate) fn switch(&self, from: Option<&TaskCell>, to: Option<&TaskCell>) {
        let rt = &self.0;
        let from = from.map_or(&rt.engine_sp, |c| &c.sp);
        let to = to.map_or(&rt.engine_sp, |c| &c.sp);
        unsafe { mpmd_fiber_switch(from.as_ptr(), to.get(), 0) };
        rt.reap();
    }
}

/// Per-scheduler fiber runtime: the engine context's slot, the retired
/// stack awaiting reap, and the free list.
struct FiberRt {
    /// Which fabric runs on these fibers; an overflow report names it.
    fabric: &'static str,
    /// The engine (OS-thread) context's saved rsp while a fiber runs.
    engine_sp: Cell<usize>,
    /// Stack of the fiber that just finished; freed/recycled by the next
    /// context to run. At most one can be pending: every switch target
    /// reaps before it can itself finish.
    retired: Cell<Option<Stack>>,
    /// Every stack this runtime drew that no fiber holds: the hot path, with
    /// no lock. Nothing leaves it but to a spawn until the runtime drops, and
    /// its capacity covers every stack the runtime drew, so a reap never
    /// grows it.
    free_stacks: UnsafeCell<Vec<Stack>>,
    /// How many stacks this runtime has drawn: the free list's capacity
    /// is kept at least this.
    drawn: Cell<usize>,
    /// Where stacks come from when `free_stacks` is empty and go when the
    /// runtime drops: [`SPARE`], but for tests.
    spare: &'static Mutex<Vec<Stack>>,
    /// The baton its fibers hold, which records each fresh one on entry.
    baton: Arc<Core>,
}

unsafe impl Send for FiberRt {}
unsafe impl Sync for FiberRt {}

impl FiberRt {
    fn new(fabric: &'static str, baton: Arc<Core>) -> FiberRt {
        FiberRt {
            fabric,
            engine_sp: Cell::new(0),
            retired: Cell::new(None),
            free_stacks: UnsafeCell::new(Vec::new()),
            drawn: Cell::new(0),
            spare: &SPARE,
            baton,
        }
    }

    /// Put the stack of the fiber that just terminal-switched away on the
    /// free list, aborting if that fiber overflowed it. Called at every
    /// switch-in point, where that stack is guaranteed quiescent.
    fn reap(&self) {
        if let Some(s) = self.retired.take() {
            if let Some(owner) = s.overflowed_by() {
                overflow_abort(self.fabric, owner);
            }
            let free = unsafe { &mut *self.free_stacks.get() };
            free.push(s);
        }
    }

    fn alloc_stack(&self) -> Stack {
        let free = unsafe { &mut *self.free_stacks.get() };
        free.pop().unwrap_or_else(|| {
            // Room on the (empty) free list for every stack drawn, this one
            // included, so that no reap grows the list.
            self.drawn.set(self.drawn.get() + 1);
            free.reserve(self.drawn.get());
            let spare = self
                .spare
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            spare.unwrap_or_else(Stack::new)
        })
    }

    /// Give the spare list every free stack it has room for, after checking
    /// every canary: a clobbered one is returned, naming its fiber, and then
    /// nothing is handed over. What does not fit stays on the free list, to
    /// be freed with the runtime.
    fn hand_over(&mut self) -> Result<(), (usize, u32)> {
        let free = self.free_stacks.get_mut();
        if let Some(owner) = free.iter().find_map(Stack::overflowed_by) {
            return Err(owner);
        }
        let mut spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner);
        let room = free.len().min(SPARE_CAP - spare.len());
        spare.extend(free.drain(..room));
        Ok(())
    }
}

impl Drop for FiberRt {
    fn drop(&mut self) {
        self.reap();
        if let Err(owner) = self.hand_over() {
            overflow_abort(self.fabric, owner);
        }
    }
}

/// Write the initial frame (see the layout contract above the assembly)
/// and return the seeded stack pointer.
fn seed_frame(stack: &Stack, body: *mut FiberBody) -> usize {
    let top = stack.top();
    // Frame is 64 bytes; the resumed "return" must land with rsp ≡ 8 mod 16.
    let sp = top - 72;
    debug_assert_eq!(sp % 16, 8);
    let (mxcsr, fcw) = fp_env();
    unsafe {
        let p = sp as *mut u8;
        (p as *mut u32).write(mxcsr);
        (p.add(4) as *mut u16).write(fcw);
        (p.add(8) as *mut usize).write(0); // r15
        (p.add(16) as *mut usize).write(0); // r14
        (p.add(24) as *mut usize).write(0); // r13
        (p.add(32) as *mut usize).write(body as usize); // r12 → trampoline arg
        (p.add(40) as *mut usize).write(0); // rbx
        (p.add(48) as *mut usize).write(0); // rbp
        (p.add(56) as *mut usize).write(mpmd_fiber_start as *const () as usize);
        // ret
    }
    sp
}

/// Rust-side landing of the trampoline: run the task body, then perform its
/// final baton movement and retire this fiber's stack. Mirrors the worker
/// loop of the pooled-thread host. The body catches its own panics (an unwind
/// past this frame would abort the process).
#[no_mangle]
extern "C" fn mpmd_fiber_entry(raw: *mut FiberBody) -> ! {
    // Moved out of a temporary box, so the allocation is freed here and not
    // at the end of a scope this function never reaches.
    let FiberBody {
        body,
        rt,
        cell,
        owner,
    } = *unsafe { Box::from_raw(raw) };
    rt.reap();
    rt.baton.enter(owner);
    let next = body();
    let target_sp = next.as_ref().map_or(&rt.engine_sp, |c| &c.sp).get();
    // Move our stack into the retired slot; the switch target reaps it once
    // we are definitely off it. (Ownership moves now, the memory stays put.)
    let my_stack = unsafe { (*cell.stack.get()).take() };
    rt.retired.set(my_stack);
    // Release every handle while we can still run destructors (the raw
    // engine/successor sp was read above).
    drop(next);
    drop(cell);
    drop(rt);
    let mut scratch = 0usize;
    unsafe { mpmd_fiber_switch(&mut scratch, target_sp, 0) };
    // Nobody holds this context's sp; resuming it is impossible.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fiber machinery is exercised end-to-end by every engine test of a
    // build that hosts tasks on fibers; these cover the raw primitive in
    // isolation.

    #[test]
    fn raw_switch_round_trip() {
        // Hand-roll a two-way switch without the engine: a fiber that adds
        // to a counter, yields back, is resumed, and finishes. The
        // return-address slot of the seeded frame is pointed straight at
        // `entry` (seed_frame already leaves rsp with call-entry alignment
        // there), bypassing the FiberBody trampoline.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static HITS: AtomicUsize = AtomicUsize::new(0);
        struct Raw {
            main_sp: Cell<usize>,
            fib_sp: Cell<usize>,
        }
        unsafe impl Sync for Raw {}
        static RAW: Raw = Raw {
            main_sp: Cell::new(0),
            fib_sp: Cell::new(0),
        };

        extern "C" fn entry() {
            HITS.fetch_add(1, Ordering::SeqCst);
            unsafe { mpmd_fiber_switch(RAW.fib_sp.as_ptr(), RAW.main_sp.get(), 0) };
            HITS.fetch_add(1, Ordering::SeqCst);
            let mut scratch = 0usize;
            unsafe { mpmd_fiber_switch(&mut scratch, RAW.main_sp.get(), 0) };
            unreachable!()
        }

        let stack = Stack::new();
        let sp = seed_frame(&stack, std::ptr::null_mut());
        unsafe { ((sp + 56) as *mut usize).write(entry as *const () as usize) };
        RAW.fib_sp.set(sp);
        assert_eq!(HITS.load(Ordering::SeqCst), 0);
        unsafe { mpmd_fiber_switch(RAW.main_sp.as_ptr(), RAW.fib_sp.get(), 0) };
        assert_eq!(HITS.load(Ordering::SeqCst), 1);
        unsafe { mpmd_fiber_switch(RAW.main_sp.as_ptr(), RAW.fib_sp.get(), 0) };
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
        drop(stack); // fiber finished; its stack is quiescent
    }

    #[test]
    fn stack_tops_are_aligned() {
        for _ in 0..4 {
            let s = Stack::new();
            assert_eq!(s.top() % 16, 0);
            assert!(s.top() - s.mem.as_ptr() as usize <= STACK_SIZE);
        }
    }

    /// A runtime that draws from and hands to `spare` instead of [`SPARE`].
    fn test_rt(spare: &'static Mutex<Vec<Stack>>) -> FiberRt {
        let mut rt = FiberRt::new("test", Core::new(0..1));
        rt.spare = spare;
        rt
    }

    fn addr(stack: &Stack) -> usize {
        stack.mem.as_ptr() as usize
    }

    #[test]
    fn a_runtime_starts_on_the_stacks_of_one_that_dropped() {
        // A spare list of this test's own: other tests' runtimes share the
        // process-wide one.
        static SPARE: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
        let mut first = test_rt(&SPARE);
        let drawn: Vec<Stack> = (0..3).map(|_| first.alloc_stack()).collect();
        let mut before: Vec<usize> = drawn.iter().map(addr).collect();
        for s in drawn {
            first.retired.set(Some(s));
            first.reap();
        }
        // A reap never grows the free list: it has room for every stack drawn.
        assert!(first.free_stacks.get_mut().capacity() >= 3);
        drop(first);
        assert_eq!(SPARE.lock().unwrap().len(), 3);

        // The next runtime draws those very blocks before allocating.
        let second = test_rt(&SPARE);
        let drawn: Vec<Stack> = (0..4).map(|_| second.alloc_stack()).collect();
        let mut after: Vec<usize> = drawn[..3].iter().map(addr).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(after, before);
        assert!(SPARE.lock().unwrap().is_empty(), "the fourth was fresh");
        for s in drawn {
            second.retired.set(Some(s));
            second.reap();
        }
        drop(second);
        assert_eq!(SPARE.lock().unwrap().len(), 4);
    }

    #[test]
    fn the_spare_list_stays_bounded() {
        static SPARE: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
        SPARE
            .lock()
            .unwrap()
            .extend((1..SPARE_CAP).map(|_| Stack::new()));
        let mut rt = test_rt(&SPARE);
        rt.free_stacks
            .get_mut()
            .extend((0..3).map(|_| Stack::new()));
        assert_eq!(rt.hand_over(), Ok(()));
        assert_eq!(SPARE.lock().unwrap().len(), SPARE_CAP);
        // The surplus stays with the runtime and is freed with it.
        assert_eq!(rt.free_stacks.get_mut().len(), 2);
        drop(rt);
        assert_eq!(SPARE.lock().unwrap().len(), SPARE_CAP);
    }

    #[test]
    fn a_clobbered_canary_names_the_culprit() {
        // What `reap` and the hand-over to the spare list act on, short of
        // the abort: a stack whose lowest word its fiber overwrote.
        static SPARE: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
        let mut rt = test_rt(&SPARE);
        let mut stack = rt.alloc_stack();
        stack.owner = (3, 41);
        assert_eq!(stack.overflowed_by(), None);
        let canary = stack.mem.as_mut_ptr().cast::<u64>();
        unsafe { canary.write(0) };
        let culprit = stack.overflowed_by().expect("clobbered");
        assert_eq!(culprit, (3, 41));
        let msg = overflow_message(rt.fabric, culprit);
        for part in ["test fabric", "node 3", "task 41"] {
            assert!(msg.contains(part), "{msg}");
        }
        // Straight onto the free list (a reap would abort the test): the
        // hand-over names it and gives the spare list nothing, not even the
        // sound stack beside it.
        rt.free_stacks.get_mut().push(stack);
        rt.free_stacks.get_mut().push(Stack::new());
        assert_eq!(rt.hand_over(), Err((3, 41)));
        assert!(SPARE.lock().unwrap().is_empty());
        // Repaired: both reach the spare list.
        unsafe { canary.write(CANARY) };
        assert_eq!(rt.hand_over(), Ok(()));
        assert_eq!(SPARE.lock().unwrap().len(), 2);
        drop(rt);
        assert_eq!(SPARE.lock().unwrap().len(), 2);
    }
}
