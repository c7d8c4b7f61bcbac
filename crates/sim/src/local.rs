//! The wall-clock fabric: one OS thread per node, real nanoseconds.
//!
//! [`LocalFabric`] is the one handle body ([`Handle`]) over this module's
//! driver, [`LocalDriver`], as [`Ctx`](crate::Ctx) is over the simulator's.
//! The driver gives every node one OS thread and runs all of that node's
//! tasks on it as stackful fibers under a run-until-block scheduler — the
//! paper's lightweight non-preemptive threads package — and carries frames
//! over per-(src, dst) rings ([`Ring`]), so the benchmarks built on the AM
//! substrate execute on real hardware and the latency histograms hold
//! *measured* nanoseconds instead of modeled ones. DESIGN.md §4a has the
//! contract table; in short:
//!
//! * **Cooperative tasks per node.** A task runs until it calls a blocking
//!   fabric operation (`park`, `park_for_inbox*`, `join`, `sleep`,
//!   `yield_now`). `spawn`, `unpark` and a task's exit only move ids between
//!   node-local queues, and the switch is the simulator's userspace stack
//!   switch ([`crate::baton`]): no futex, no kernel. Two tasks of one node
//!   never run at the same time — what `mpmd-threads` documents and what the
//!   simulator does. Nodes do run in parallel.
//! * **A frame is one cache-line hand-off.** A sender fills the slot the
//!   frame travels in and publishes it with the stamp beside it; the receiver
//!   reads that slot and nothing else the sender writes. One producer, one
//!   consumer, each cursor in a block of its own, no lock: see [`Ring`].
//! * **A full link makes its sender wait** in place, running nothing, while
//!   it stashes its own node's full inbound links, so senders that fill links
//!   to each other all proceed ([`LocalFabric::push_when_room`]).
//! * **One idle loop.** Only when no task of the node is runnable does its
//!   thread wait — spin → yield → timed park on the [`NodeParker`], walking
//!   the [`WaitPolicy`] ladder — and that loop is the one place that readies
//!   inbox waiters when a ring is non-empty and fires timers from the node's
//!   deadline list (`sleep`, `park_for_inbox_until`). Whichever context found
//!   nothing runnable runs it in place: a node with a single task spins on
//!   its own stack and never switches. It spins on what it will act on
//!   ([`LocalDriver::pending`]): the run phase and, only while a task waits on
//!   the inbox, the head slots of its inbound links. Frames nobody waits for
//!   are not looked at — a node whose tasks all sit in `park` must reach its
//!   timed park.
//! * **Wake-ups cost the sender a fence and a load** unless the receiver's
//!   thread is really asleep: [`NodeParker`] has the flag/flag argument.
//! * **Cross-thread state**: the rings, the parker, `retired` flags, and
//!   each node's [`Ledger`], which only the node's thread writes and any
//!   `snapshot()` reads in place: a frame publishes every count its sender
//!   made before it. Only messages cross nodes, and nothing runs beside a
//!   node's thread: a handle works for a task of its own node, as the node's
//!   baton checks, and panics anywhere else, unless only asked what it is
//!   (`node`, `now`, `inbox_len`, ...). Task table and run queue
//!   (`crate::sched::NodeTasks`, the simulator's too), deadline list, stash,
//!   singletons and [`Probe`] (the trace ring) are touched by the node's
//!   thread alone, and so is each link's receiving end.
//! * **A task that blocks outside the fabric** (a `std::sync` lock held by
//!   another node, a syscall, `std::thread::sleep`) stalls every task of its
//!   node for that long. A lock shared by two tasks of one node must not be
//!   held across a blocking fabric call: the other would wait on it with
//!   nobody left to release it.
//! * **Stacks** are 2 MiB heap blocks, kept by each node's runtime and, when
//!   it drops, handed to the process-wide spare list the next run draws from.
//!   A canary word at the low end, checked at each exit and at hand-over,
//!   aborts the process on an overflow with node and task named.
//! * **The build picks the task host** ([`crate::baton::BACKEND`]): the
//!   fibers above on x86-64 unix; elsewhere, and under `--cfg
//!   mpmd_no_fibers`, the same scheduler moves the same baton between pooled
//!   OS threads, one per live task, still one at a time per node.
//!
//! Relative to the simulated fabric: clocks are wall-clock (`now()` is
//! nanoseconds since the run's epoch, `charge()` only feeds the ledger, the
//! modeled `delay` of `send_msg` is ignored); per-link FIFO holds and no
//! cross-link order is promised; `park_for_inbox` may return spuriously; and
//! there is no fault injection (the builder rejects cost models that carry a
//! fault model, so the reliable layer stays in its plain-send mode).

use crate::baton::{Backend, BatonCell, NodeKey, TaskCell};
use crate::cost::CostModel;
use crate::ctx::{Driver, Handle, Machine};
use crate::event::Msg;
use crate::metrics::MetricsRegistry;
use crate::probe::{Ledger, Probe};
use crate::report::{Report, Snapshot};
use crate::sched::NodeTasks;
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{NodeTrace, TraceConfig, TraceLog};
use crate::wait::{WaitPhase, WaitPolicy, Waiter};
use std::any::Any;
use std::cell::{Cell, RefMut, UnsafeCell};
use std::collections::VecDeque;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Pad to a 128-byte block (a cache line and the neighbour the adjacent-line
/// prefetcher pulls with it on x86): what is written by one thread per
/// message shares no block with what another thread reads per message.
#[repr(align(128))]
struct Pad<T>(T);

/// One ring slot, a block of its own: the frame and, beside it, the stamp
/// that publishes it. `stamp == pos + 1` says the frame of position `pos` is
/// in `msg`; any other value is what an earlier lap (or `Ring::new`) left.
/// The consumer never writes a slot — it frees one by advancing `head`.
#[repr(align(128))]
struct Slot {
    stamp: AtomicUsize,
    msg: UnsafeCell<MaybeUninit<Msg>>,
}

/// The producer's cursors.
struct Prod {
    /// Position the next frame takes.
    tail: Cell<usize>,
    /// The consumer's `head` as of the last time the ring looked full.
    head_seen: Cell<usize>,
}

/// One direction of one link: a bounded ring with one producer and one
/// consumer, the threads holding the sending and the receiving node's
/// batons. A frame costs one cache-line hand-off, that of its slot; a full
/// ring hands the frame back ([`LocalFabric::push_when_room`]).
///
/// **Who owns which block.** `prod` is the producer's alone; `head` is
/// written by the consumer and read by a producer that finds the ring looking
/// full; `slots`/`mask` are never written; a slot is written by the producer
/// and read by the consumer.
///
/// **Hand-off.** The producer fills `slots[tail & mask]` and publishes it
/// with a Release store of `stamp = tail + 1`; the consumer's Acquire load of
/// that stamp makes the frame visible, and it moves the frame out without
/// writing the slot. The slot is free for the next lap once the consumer's
/// Release store of `head` has passed it, which the producer learns with an
/// Acquire load of `head` when `tail - head_seen` reaches the capacity.
/// Publication is in position order: `p` published implies every earlier.
struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    prod: Pad<Prod>,
    /// Position of the next frame to take: the consumer's cursor.
    head: Pad<AtomicUsize>,
}

// SAFETY: `prod`'s cells and the slots' `msg` are the fields that are not
// `Sync`. `prod` is touched only by the link's producer (`push`, reached
// through `send_msg` on the thread holding the sending node's baton) and by
// the exclusive `drop`. A slot's frame is written by that producer after an
// Acquire load of `head` showed the previous lap's frame taken, and moved out
// once by the link's one consumer (`pop`, reached through `try_recv` and
// `push_when_room` on the thread holding the receiving node's baton) after an
// Acquire load of the stamp the producer stored with Release. A baton switch
// synchronizes, so successive holders see each other's writes. `Msg` is
// `Send`.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self::starting_at(capacity, 0)
    }

    /// A ring whose cursors start at `start` (tests start near `usize::MAX`
    /// to cross the wrap; positions and stamps are compared modulo 2^64).
    fn starting_at(capacity: usize, start: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity");
        Ring {
            // No position at or after `start` publishes as `start`.
            slots: (0..capacity)
                .map(|_| Slot {
                    stamp: AtomicUsize::new(start),
                    msg: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: capacity - 1,
            prod: Pad(Prod {
                tail: Cell::new(start),
                head_seen: Cell::new(start),
            }),
            head: Pad(AtomicUsize::new(start)),
        }
    }

    /// Whether position `pos` has been published and its slot not reused.
    fn published(&self, pos: usize) -> bool {
        self.slots[pos & self.mask].stamp.load(Ordering::Acquire) == pos.wrapping_add(1)
    }

    /// Publish `msg`, or hand it back if the ring is full. Caller is the
    /// link's producer; `head` is read only when `head_seen` says full.
    fn push(&self, msg: Msg) -> Result<(), Msg> {
        let p = &self.prod.0;
        let pos = p.tail.get();
        if pos.wrapping_sub(p.head_seen.get()) == self.slots.len() {
            p.head_seen.set(self.head.0.load(Ordering::Acquire));
            if pos.wrapping_sub(p.head_seen.get()) == self.slots.len() {
                return Err(msg);
            }
        }
        let slot = &self.slots[pos & self.mask];
        // SAFETY: the slot is this push's alone (type-level comment): `head`
        // was seen past the frame it held a lap ago.
        unsafe { (*slot.msg.get()).write(msg) };
        slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
        p.tail.set(pos.wrapping_add(1));
        Ok(())
    }

    /// Whether `pop` would find a frame, from the consumer's own cursor and
    /// the slot under it: never `tail`.
    fn ready(&self) -> bool {
        self.published(self.head.0.load(Ordering::Relaxed))
    }

    /// Whether every slot holds a frame. Caller is the link's consumer.
    fn full(&self) -> bool {
        let head = self.head.0.load(Ordering::Relaxed);
        self.published(head.wrapping_add(self.slots.len() - 1))
    }

    /// Move the oldest frame out if it has been published. Caller is the
    /// link's consumer.
    fn pop(&self) -> Option<Msg> {
        let head = &self.head.0;
        let pos = head.load(Ordering::Relaxed);
        if !self.published(pos) {
            return None;
        }
        // SAFETY: published, and not yet taken since `head` has not passed
        // it; advancing `head` below is what keeps it from being read twice.
        let msg = unsafe { (*self.slots[pos & self.mask].msg.get()).assume_init_read() };
        head.store(pos.wrapping_add(1), Ordering::Release);
        Some(msg)
    }

    /// Frames queued on this link: the published prefix of the ring from
    /// `head`, found by galloping over the in-order stamps — O(log depth)
    /// reads of slots the consumer is about to pop anyway. Never reads
    /// `tail`; exact whenever the link is quiescent, a gauge while frames
    /// move.
    fn depth(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let published = |k: usize| self.published(head.wrapping_add(k));
        // Every k < lo is published; the answer is in lo..=hi.
        let (mut lo, mut hi) = (0, self.slots.len());
        let mut probe = 0;
        while probe < hi {
            if !published(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            probe = 2 * probe + 1;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if published(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl Drop for Ring {
    /// Frames still in flight when the run ends are dropped here, once: the
    /// positions `head..tail`.
    fn drop(&mut self) {
        let tail = self.prod.0.tail.get();
        let mut pos = *self.head.0.get_mut();
        while pos != tail {
            // SAFETY: exclusive access, and every position below `tail` was
            // filled before `tail` moved past it.
            unsafe { self.slots[pos & self.mask].msg.get_mut().assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Where a node's thread sleeps when its idle loop has run out of spin budget,
/// in a block of its own that nobody writes unless it is parking — so a
/// sender's `bump` against a running receiver is a fence and a load of a
/// block that stays shared.
///
/// **No lost wake-up** (Dekker): the parking thread stores `parked`, fences,
/// then checks what it waits for; a waker makes that true, fences, then
/// loads `parked`. One of the two loads sees the other side's store. If the
/// waker's does, it takes the lock: either before the parker has — which
/// then re-checks under the lock and sees what the waker did — or once the
/// parker is inside `wait`, which the notify ends.
#[repr(align(128))]
struct NodeParker {
    /// The node's thread is inside `park_timeout`.
    parked: AtomicBool,
    /// Wake-ups signalled to a parked thread.
    gen: Mutex<u64>,
    cv: Condvar,
}

impl NodeParker {
    fn new() -> Self {
        NodeParker {
            parked: AtomicBool::new(false),
            gen: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Called after making something true that the node's idle loop looks
    /// for (a published frame, a new phase).
    fn bump(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            *locked(&self.gen) += 1;
            self.cv.notify_all();
        }
    }

    /// Park until a `bump` or for `dur`, unless `pending()` — the predicate
    /// the caller's wakers make true before they `bump` — already holds.
    /// Spurious returns are fine; callers re-check.
    fn park_timeout(&self, dur: Duration, pending: impl Fn() -> bool) {
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        {
            let gen = locked(&self.gen);
            if !pending() {
                let seen = *gen;
                let _ = self.cv.wait_timeout_while(gen, dur, |gen| *gen == seen);
            }
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// Lock ignoring poisoning. No user code runs under one of the fabric's
/// mutexes; a poisoned lock therefore only says that some task panicked —
/// which `run` re-raises itself, with the original message rather than
/// `PoisonError`'s.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The payload that unwinds a task blocked in a poisoned run. Raised with
/// `resume_unwind`, so the panic hook stays quiet; never reported.
struct RunPoisoned;

/// Everything a node's own thread keeps about its tasks: the node borrow of
/// the handle body. No lock and no atomic: it is reached through the node's
/// [`BatonCell`] by whichever context of the node holds the baton, and only
/// one does at a time.
pub struct Sched {
    /// Task records, run queue, inbox waiters and the running task.
    tasks: NodeTasks,
    /// The deadline list (`sleep`s, timed inbox waits), soonest first: each
    /// entry carries its task's wake generation, and one whose task has
    /// woken since is skipped when it comes due.
    timers: VecDeque<(Time, TaskId, u64)>,
    /// The run phase this node has acted on (see [`LocalDriver::phase`]).
    seen_phase: u8,
    /// Escalation state of the idle loop, kept across idle periods: waits
    /// that end unproductively keep backing off, a productive one resets it.
    waiter: Waiter,
    /// Where `try_recv` starts its scan: the link after the one that
    /// delivered last, so no neighbor starves the others.
    rotate: usize,
    /// Frames a send that waited for room took off full inbound rings, each
    /// link's oldest first; `try_recv` serves them before any ring.
    stash: VecDeque<Msg>,
    /// The node's trace ring.
    probe: Probe,
}

impl Sched {
    fn new(tasks: NodeTasks, wait: WaitPolicy, probe: Probe) -> Self {
        Sched {
            tasks,
            timers: VecDeque::new(),
            seen_phase: RUNNING,
            waiter: Waiter::new(wait),
            rotate: 0,
            stash: VecDeque::new(),
            probe,
        }
    }
}

/// One node: what other threads may touch, and (in `local`) what they may not.
struct Node {
    /// Read by every sender of a frame to this node; alone in its block.
    parker: NodeParker,
    /// The node's totals, written only by the holder of its baton and read
    /// only by `snapshot()`, in blocks of their own. The Release store that
    /// publishes a frame orders every count its sender made before it, so
    /// whoever receives the frame reads totals that hold them.
    ledger: Ledger,
    /// The node's last task has exited: it never receives again.
    retired: AtomicBool,
    /// The node's baton. Its engine context is the node's thread.
    backend: Backend,
    /// The node's scheduler, touched only by the thread that holds the
    /// node's baton. The borrow flag catches a probe closure that calls back
    /// into the fabric.
    local: BatonCell<Sched>,
}

// The layout the message path relies on, checked at compile time so that the
// next field added cannot quietly bring false sharing back. Per message a
// sender reads the receiver's `parker.parked` and the link's `slots`/`mask`,
// and writes the slot, the link's `prod` block and its own ledger; a
// receiver writes the link's `head` block and its own ledger. Nothing one
// thread writes per message may share a 128-byte block with what another
// reads per message.
const _: () = {
    assert!(size_of::<Slot>() == 128 && align_of::<Slot>() == 128);
    // Alone in its block, wherever `Node` puts it.
    assert!(size_of::<NodeParker>() == 128 && align_of::<NodeParker>() == 128);
    // Whole blocks of its own, wherever `Node` puts it: the counts share no
    // block with the parker or with another node's ledger.
    assert!(size_of::<Ledger>().is_multiple_of(128) && align_of::<Ledger>() == 128);
    // A link is three whole blocks — `prod`, `head`, and the read-only
    // `slots`/`mask` — so its neighbours in `rings`, one of them the same
    // two nodes' link in the other direction, share none with it.
    assert!(size_of::<Ring>() == 3 * 128 && align_of::<Ring>() == 128);
};

/// Run phases, in order.
const RUNNING: u8 = 0;
/// Only daemons are left: they wind down.
const SHUTTING_DOWN: u8 = 1;
/// A task panicked: every task unwinds at its next blocking call.
const POISONED: u8 = 2;

/// The wall-clock driver: every node's thread, links and scheduler.
pub struct LocalDriver {
    machine: Machine,
    epoch: Instant,
    rings: Vec<Ring>, // src * nodes + dst
    node: Vec<Node>,
    /// What keeps the run open: one hold per node with a live non-daemon
    /// task, and one per node until its root is in its table. Shutdown
    /// begins at zero.
    holds: AtomicUsize,
    phase: AtomicU8,
    /// Payload of the first task panic; `run` re-raises it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl LocalDriver {
    fn now(&self) -> Time {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ring(&self, src: usize, dst: usize) -> &Ring {
        &self.rings[src * self.machine.nodes + dst]
    }

    /// Whether something has happened to `node` from outside that
    /// `poll_events` would act on, deadlines aside: what the idle loop spins
    /// on and what every `bump` of the node's parker follows. A queued frame
    /// counts only while a task waits on the inbox — with every task in
    /// `park` or `join` nobody would take it, and a node that spun on it
    /// would never reach its timed park.
    fn pending(&self, node: usize, s: &Sched) -> bool {
        self.phase() != s.seen_phase || (s.tasks.waits_for_inbox() && self.has_frame(s, node))
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Apply what has happened to `node` from outside since the last call:
    /// deadlines that have passed, frames its inbox waiters wait for, a new
    /// run phase. Returns whether anything had. Called wherever the node
    /// picks its next task, so a node that is never idle still sees all
    /// three.
    fn poll_events(&self, node: usize, s: &mut Sched) -> bool {
        let mut any = false;
        while s.timers.front().is_some_and(|(d, ..)| self.now() >= *d) {
            let (_, t, gen) = s.timers.pop_front().expect("checked");
            any |= self.wake(s, node, |tasks| tasks.wake_timed(t, gen));
        }
        if s.tasks.waits_for_inbox() && self.has_frame(s, node) {
            self.wake(s, node, NodeTasks::wake_inbox_waiters);
            any = true;
        }
        let phase = self.phase();
        if phase != s.seen_phase {
            s.seen_phase = phase;
            // In a poisoned run every task it wakes unwinds when resumed.
            self.wake(s, node, NodeTasks::release);
            any = true;
        }
        any
    }

    /// The next task to run on `node`, waiting for one to become runnable if
    /// none is: the node's idle loop, run in place by whichever context —
    /// a blocking task or the engine — found the run queue empty. `None`
    /// once the run is over for this node: it is shutting down and the
    /// node's last task has exited.
    fn next_ready(&self, node: usize, s: &mut Sched) -> Option<(TaskId, Arc<TaskCell>)> {
        loop {
            if self.poll_events(node, s) {
                s.waiter.reset();
            }
            if let Some(next) = s.tasks.run_next() {
                return Some(next);
            }
            // Nothing can arrive afterwards: only the node's own tasks spawn.
            if s.tasks.live() == 0 && self.phase() != RUNNING {
                return None;
            }
            self.idle(node, s);
        }
    }

    /// One wait of the idle loop. Returns when something is [`pending`]
    /// (a phase change, a frame for an inbox waiter), when the
    /// earliest deadline has passed, or after one bounded park — then every
    /// inbox waiter is released, spuriously, since what it really waits for
    /// may be a store by another node that bumps nothing.
    ///
    /// [`pending`]: Self::pending
    fn idle(&self, node: usize, s: &mut Sched) {
        let parker = &self.node[node].parker;
        loop {
            // Time left until the earliest deadline, if there is one.
            let left = s.timers.front().map(|(d, ..)| d.saturating_sub(self.now()));
            if left == Some(0) {
                return;
            }
            match s.waiter.next_phase() {
                WaitPhase::Spin => std::hint::spin_loop(),
                WaitPhase::Yield => std::thread::yield_now(),
                WaitPhase::Park(slice) => {
                    let dur = left.map_or(slice, |l| slice.min(l));
                    parker.park_timeout(Duration::from_nanos(dur), || self.pending(node, s));
                    // Before the spurious release, which would hide that a
                    // frame is what ended the park.
                    if self.poll_events(node, s) {
                        s.waiter.reset();
                    }
                    self.wake(s, node, NodeTasks::wake_inbox_waiters);
                    return;
                }
            }
            if self.pending(node, s) {
                return;
            }
        }
    }

    /// Enter `phase` (never leave a later one) and wake every node's thread
    /// to act on it.
    fn begin_shutdown(&self, phase: u8) {
        self.phase.fetch_max(phase, Ordering::SeqCst);
        for n in &self.node {
            n.parker.bump();
        }
    }

    /// Release one hold on the run; the last one begins the shutdown.
    fn release_hold(&self) {
        if self.holds.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.begin_shutdown(SHUTTING_DOWN);
        }
    }

    /// In a run poisoned by a task panic, unwind the calling task too: what
    /// it is about to block on may never come.
    fn check_poison(&self) {
        if self.phase() == POISONED {
            std::panic::resume_unwind(Box::new(RunPoisoned));
        }
    }

    /// Every node's totals as they stand, on the one wall clock.
    fn snapshot(&self) -> Snapshot {
        let metrics = |n: &Node| n.ledger.metrics(&Default::default());
        Snapshot {
            clocks: vec![self.now(); self.machine.nodes],
            stats: self.node.iter().map(|n| n.ledger.stats.read()).collect(),
            metrics: self.machine.cost.metrics.then(|| MetricsRegistry {
                nodes: self.node.iter().map(metrics).collect(),
            }),
        }
    }
}

/// The engine context of `node`, on the node's own thread: start the node's
/// root, then pick a task (or idle until there is one), lend it the baton,
/// and get it back when a task exits with nobody else runnable. Returns the
/// node's trace, on a traced run.
fn node_main<G>(inner: &Arc<LocalDriver>, node: usize, root: G) -> Option<NodeTrace>
where
    G: FnOnce(LocalFabric) + Send + 'static,
{
    let me = &inner.node[node];
    let _engine = me.backend.engine();
    LocalFabric::start(inner, &mut me.local.borrow_mut(), node, "main", false, root);
    // The node's bootstrap hold: its root holds the run open from here.
    inner.release_hold();
    loop {
        let mut s = me.local.borrow_mut();
        let Some((_, cell)) = inner.next_ready(node, &mut s) else {
            return s.probe.take_trace();
        };
        drop(s);
        me.backend.switch(None, Some(&cell));
    }
}

/// Configuration for a wall-clock run.
pub struct LocalFabricBuilder {
    nodes: usize,
    cost: CostModel,
    trace: Option<TraceConfig>,
    wait: WaitPolicy,
    ring_capacity: usize,
}

impl LocalFabricBuilder {
    /// A machine of `nodes` OS-thread nodes with the default cost model.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "at least one node");
        LocalFabricBuilder {
            nodes,
            // Wall-clock histograms are the point of this backend.
            cost: CostModel::default().with_metrics(),
            trace: None,
            // Host-adaptive: on a single-CPU machine spinning starves the
            // very peer being waited for (see `WaitPolicy::auto_for`).
            wait: WaitPolicy::auto_for(std::thread::available_parallelism().map_or(1, |p| p.get())),
            ring_capacity: 1024,
        }
    }

    /// Use `cost` for the charge ledger and its `metrics` switch (the fault
    /// model must be absent — fault injection needs the deterministic
    /// kernel).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        assert!(
            cost.faults.is_none(),
            "LocalFabric does not support fault injection"
        );
        self.cost = cost;
        self
    }

    /// Set the cost model's `metrics` switch (on by default).
    pub fn metrics(mut self, on: bool) -> Self {
        self.cost.metrics = on;
        self
    }

    /// Record a trace, returned on [`Report::trace`] after the run, with
    /// timestamps in nanoseconds since the run began. Span ids are numbered
    /// per node, like task ids.
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Per-link ring capacity (a power of two).
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "ring capacity");
        self.ring_capacity = cap;
        self
    }

    /// Escalation policy of every node's idle loop.
    pub fn wait_policy(mut self, wait: WaitPolicy) -> Self {
        wait.validate();
        self.wait = wait;
        self
    }

    /// Run `body` once per node (as node 0..N-1), each node on an OS thread
    /// of its own, and collect the report: per-node wall-clock elapsed time,
    /// the charge ledger, and the measured-nanosecond metrics registry.
    pub fn run<G>(self, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        let n = self.nodes;
        let cap = self.ring_capacity;
        let trace = self.trace.as_ref();
        let metrics = self.cost.metrics;
        let inner = Arc::new(LocalDriver {
            machine: Machine::new(n, self.cost, trace.is_some()),
            epoch: Instant::now(),
            rings: (0..n * n).map(|_| Ring::new(cap)).collect(),
            node: (0..n)
                .map(|node| {
                    let backend = Backend::new("local");
                    let sched = Sched::new(
                        NodeTasks::new(node, n),
                        self.wait,
                        Probe::new(trace, &Arc::default()),
                    );
                    Node {
                        parker: NodeParker::new(),
                        ledger: Ledger::new(metrics),
                        retired: AtomicBool::new(false),
                        local: BatonCell::new(&backend, sched),
                        backend,
                    }
                })
                .collect(),
            // One bootstrap hold per node: a root that returns before its
            // siblings have started must not begin the shutdown.
            holds: AtomicUsize::new(n),
            phase: AtomicU8::new(RUNNING),
            panic: Mutex::new(None),
        });
        let body = Arc::new(body);
        let threads: Vec<_> = (0..n)
            .map(|node| {
                let (inner, body) = (Arc::clone(&inner), Arc::clone(&body));
                std::thread::Builder::new()
                    .name(format!("lf-{node}"))
                    .spawn(move || node_main(&inner, node, move |fab| body(fab)))
                    .expect("OS thread spawn failed")
            })
            .collect();
        // The last non-daemon task (or the first panic) begins the shutdown;
        // each node's thread returns, with its trace, once its daemons have
        // wound down.
        let traces: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("a node's thread died outside a task"))
            .collect();
        if let Some(payload) = locked(&inner.panic).take() {
            std::panic::resume_unwind(payload);
        }
        let trace = traces.into_iter().collect::<Option<_>>();
        inner
            .snapshot()
            .report(trace.map(|nodes| TraceLog { nodes }))
    }
}

/// A handle to the wall-clock machine held by one task: the one handle body
/// over the wall-clock driver (`LocalDriver`). Cheap to clone; clones refer
/// to the same task.
pub type LocalFabric = Handle<LocalDriver>;

impl LocalFabric {
    /// Run `body` on `nodes` OS threads with the default configuration.
    pub fn run<G>(nodes: usize, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        LocalFabricBuilder::new(nodes).run(body)
    }

    /// Push `msg` to `dst`; on a full link, wait in place, keeping the baton
    /// and running no task and no handler, while emptying this node's full
    /// inbound links into its stash — so a peer waiting on this node gets
    /// room even if this node waits on it. `false`: the frame is dropped, as
    /// `dst` has no task left.
    fn push_when_room(&self, dst: usize, mut msg: Msg) -> bool {
        let inner = &self.inner;
        let link = inner.ring(self.node, dst);
        let mut spins = 0;
        loop {
            msg = match link.push(msg) {
                Ok(()) => return true,
                Err(back) => back,
            };
            let mut s = self.home();
            for inbound in (0..inner.machine.nodes).map(|src| inner.ring(src, self.node)) {
                if inbound.full() {
                    s.stash
                        .extend(std::iter::from_fn(|| inbound.pop()).take(inbound.slots.len()));
                }
            }
            // Poison first: a sender looping on a retired node must unwind.
            inner.check_poison();
            if inner.node[dst].retired.load(Ordering::Acquire) {
                return false;
            }
            if spins < s.waiter.policy().spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// What the one handle body runs over on the wall clock: a node's home is its
/// scheduler, `now` is nanoseconds since the run's epoch and `charge` only
/// keeps the ledger, a block inserts its deadline into the node's list, and
/// the next task is picked — or idled for — on the blocking task's own
/// stack.
impl Driver for LocalDriver {
    type Home = Sched;

    #[inline]
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn backend(&self, node: usize) -> &Backend {
        &self.node[node].backend
    }

    /// Any task of the node may, through any handle of the node; no other
    /// context may, and nor may a `with_stats` closure further up this stack
    /// (the baton checks both).
    #[inline]
    fn home(&self, node: usize, key: NodeKey) -> RefMut<'_, Sched> {
        self.node[node].local.borrow_at(key)
    }

    #[inline]
    fn tasks(s: &mut Sched, _node: usize) -> &mut NodeTasks {
        &mut s.tasks
    }

    #[inline]
    fn wake<R>(&self, s: &mut Sched, _node: usize, rule: impl FnOnce(&mut NodeTasks) -> R) -> R {
        s.tasks.wake(&mut s.probe, || self.now(), rule)
    }

    #[inline]
    fn probe(s: &mut Sched, _node: usize) -> &mut Probe {
        &mut s.probe
    }

    #[inline]
    fn ledger<'a>(&'a self, _s: &'a Sched, node: usize) -> &'a Ledger {
        &self.node[node].ledger
    }

    #[inline]
    fn clock(&self, _s: &Sched, _node: usize) -> Time {
        self.now()
    }

    fn has_frame(&self, s: &Sched, node: usize) -> bool {
        !s.stash.is_empty() || (0..self.machine.nodes).any(|src| self.ring(src, node).ready())
    }

    /// Names are kept only in the trace: storing one in the record would
    /// cost an allocation per spawn.
    fn register(
        &self,
        s: &mut Sched,
        _node: usize,
        _name: &str,
        daemon: bool,
        cell: Arc<TaskCell>,
    ) -> TaskId {
        let id = s.tasks.spawn(cell, String::new(), daemon);
        if !daemon && s.tasks.live() - s.tasks.daemons() == 1 {
            self.holds.fetch_add(1, Ordering::SeqCst);
        }
        id
    }

    /// Wake the task's joiners, release its hold on the run and pick who gets
    /// the baton next (`None`: the engine, which idles).
    fn exit(&self, node: usize, id: TaskId, outcome: thread::Result<()>) -> Option<Arc<TaskCell>> {
        if let Err(payload) = outcome {
            if !payload.is::<RunPoisoned>() {
                locked(&self.panic).get_or_insert(payload);
                self.begin_shutdown(POISONED);
            }
        }
        let mut s = self.node[node].local.borrow_mut();
        let daemon = self.wake(&mut s, node, |tasks| tasks.exit(id));
        if s.tasks.live() == 0 {
            self.node[node].retired.store(true, Ordering::Release);
        }
        if !daemon && s.tasks.live() == s.tasks.daemons() {
            self.release_hold();
        }
        self.poll_events(node, &mut s);
        s.tasks.run_next().map(|(_, cell)| cell)
    }

    /// Teardown: whoever would end a wait may be gone, so it is a trip
    /// through the run queue instead — a loop of waits may be waiting for a
    /// sibling, or to see `shutting_down`. In a poisoned run the task
    /// unwinds instead: a loop of waits, yields, sleeps or joins may be
    /// waiting for a peer that has died.
    #[inline]
    fn waits_are_yields(&self) -> bool {
        self.check_poison();
        self.phase() != RUNNING
    }

    /// Runs whatever else is runnable, idling in place when nothing is, so a
    /// node's only task never switches stacks.
    fn switch_away(h: &LocalFabric, mut s: RefMut<'_, Sched>, timer: Option<(Time, u64)>) {
        if let Some((d, gen)) = timer {
            let at = s.timers.partition_point(|(due, ..)| *due <= d);
            s.timers.insert(at, (d, h.task, gen));
        }
        let inner = &h.inner;
        let (next, cell) = inner
            .next_ready(h.node, &mut s)
            .expect("a live task keeps its node running");
        drop(s);
        if next != h.task {
            let backend = &inner.node[h.node].backend;
            backend.switch(Some(&h.cell), Some(&cell));
        }
    }

    /// The wall clock: a pure read, from anywhere.
    #[inline]
    fn now(h: &LocalFabric) -> Time {
        h.inner.now()
    }

    fn shutting_down(h: &LocalFabric) -> bool {
        h.inner.phase() != RUNNING
    }

    /// The modeled `delay` is ignored: the real wire supplies real latency.
    /// The receive is counted at `try_recv`, by the receiver.
    fn send(h: &LocalFabric, s: RefMut<'_, Sched>, dst: usize, msg: Msg, _delay: Time) {
        drop(s);
        if h.push_when_room(dst, msg) {
            h.inner.node[dst].parker.bump();
        }
    }

    fn try_recv(h: &LocalFabric) -> Option<Msg> {
        // Checked before the pop: a refused call must not consume a frame.
        let mut s = h.home();
        // A stashed frame is older than any in its link's ring.
        let next = s.stash.pop_front().or_else(|| {
            let (n, start) = (h.inner.machine.nodes, s.rotate);
            (0..n).find_map(|i| {
                let src = if start + i < n {
                    start + i
                } else {
                    start + i - n
                };
                let m = h.inner.ring(src, h.node).pop()?;
                s.rotate = src + 1;
                Some(m)
            })
        });
        if next.is_some() {
            h.inner.node[h.node].ledger.stats.msgs_received.add(1);
        }
        next
    }

    /// A gauge while frames move. The stash is counted only by the node's
    /// baton holder, outside a `with_stats` closure; elsewhere, the rings
    /// alone.
    fn inbox_len(h: &LocalFabric) -> usize {
        let rings = (0..h.inner.machine.nodes).map(|src| h.inner.ring(src, h.node).depth());
        let local = h.inner.node[h.node].local.try_borrow();
        rings.sum::<usize>() + local.map_or(0, |s| s.stash.len())
    }

    /// Holds what the caller's node did up to now, what every other node did
    /// before sending a frame that reached the caller (so everything before
    /// a barrier), and whatever else their counters held when read.
    fn snapshot(h: &LocalFabric) -> Snapshot {
        drop(h.home());
        h.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bucket, Fabric, Payload};
    use std::sync::atomic::AtomicU64;

    fn frame(v: u64) -> Msg {
        Msg {
            src: 0,
            wire_bytes: 8,
            payload: Payload::any(v),
        }
    }

    fn value(m: Msg) -> u64 {
        *m.payload.downcast::<u64>().expect("a frame of `frame`")
    }

    /// Cursors and stamps are compared modulo 2^64: a ring whose cursors
    /// start four positions short of the wrap carries frames across it in
    /// order, and is full after four at every position.
    #[test]
    fn ring_cursors_wrap_around() {
        for burst in [1, 3, 4] {
            let ring = Ring::starting_at(4, usize::MAX - 3);
            let (mut sent, mut got) = (0, 0);
            for _ in 0..6 {
                for _ in 0..burst {
                    assert!(ring.push(frame(sent)).is_ok(), "burst {burst}");
                    sent += 1;
                }
                assert_eq!(ring.depth(), burst);
                assert_eq!(ring.full(), burst == 4);
                if ring.full() {
                    let back = ring.push(frame(99)).expect_err("a full ring refuses");
                    assert_eq!(value(back), 99);
                }
                while let Some(m) = ring.pop() {
                    assert_eq!(value(m), got, "burst {burst}");
                    got += 1;
                }
                assert_eq!(got, sent, "burst {burst}");
                assert_eq!(ring.depth(), 0);
            }
            let head = ring.head.0.load(Ordering::Relaxed);
            assert!(head < 64, "the cursors crossed the wrap: {head}");
        }
    }

    /// `depth` is exact on a quiescent link at every fill level, wherever in
    /// the slot array the head stands, and `full` holds at capacity only.
    #[test]
    fn ring_depth_is_exact_when_quiescent() {
        const CAP: usize = 16;
        for offset in [0, 5, CAP - 1] {
            for fill in [0, 1, 2, 3, CAP - 1, CAP] {
                let ring = Ring::new(CAP);
                for i in 0..offset {
                    assert!(ring.push(frame(i as u64)).is_ok());
                    ring.pop().expect("just pushed");
                }
                for i in 0..fill {
                    assert!(ring.push(frame(i as u64)).is_ok());
                    assert_eq!(ring.depth(), i + 1, "offset {offset}");
                }
                assert_eq!(ring.full(), fill == CAP, "offset {offset}, fill {fill}");
                if fill == CAP {
                    assert!(ring.push(frame(0)).is_err(), "offset {offset}");
                }
                assert_eq!(ring.ready(), fill > 0);
                for left in (0..fill).rev() {
                    ring.pop().expect("counted");
                    assert_eq!(ring.depth(), left, "offset {offset}, fill {fill}");
                }
                assert!(ring.pop().is_none() && !ring.ready());
            }
        }
    }

    /// Frames nobody waits for are not something the idle loop acts on: a
    /// node whose tasks sit in `park` and `sleep` with frames queued must walk
    /// its ladder down to the timed park instead of spinning on "inbox
    /// non-empty". Node 0 waits to see it parked, and only then does the
    /// sleeper end the root's `park`; a node that never parks hangs the
    /// test, which the timeout reports.
    #[test]
    fn queued_frames_nobody_waits_for_let_the_node_park() {
        let sent = Arc::new(AtomicBool::new(false));
        let seen_parked = Arc::new(AtomicBool::new(false));
        run_with_timeout(2, move |fab| {
            if fab.node() == 1 {
                while !sent.load(Ordering::SeqCst) {
                    fab.yield_now();
                }
                let (root, seen) = (fab.task_id(), Arc::clone(&seen_parked));
                fab.spawn("waker", move |c| {
                    while !seen.load(Ordering::SeqCst) {
                        c.sleep(1_000_000);
                    }
                    c.unpark(root);
                });
                fab.park();
                assert_eq!(fab.inbox_len(), 3);
                return;
            }
            for i in 0..3u64 {
                fab.send_msg(1, 8, 0, Payload::any(i));
            }
            sent.store(true, Ordering::SeqCst);
            while !fab.inner.node[1].parker.parked.load(Ordering::SeqCst) {
                fab.yield_now();
            }
            seen_parked.store(true, Ordering::SeqCst);
        })
        .expect("the run completes");
    }

    /// Not a check: prints what one unproductive check of the idle loop's
    /// spin phase costs (`--nocapture`), so that a `WaitPolicy::spin` budget
    /// counted in checks can be read in nanoseconds. One inbox waiter, two
    /// nodes: a check reads the phase and both links' heads.
    #[test]
    fn report_idle_spin_check_cost() {
        const CHECKS: u32 = 300_000;
        // One inbox wait that nothing ends: the ladder is walked once, down
        // to one 1 µs park, after which the waiter is released spuriously.
        let wait_ns = |spin: u32| {
            let took = Arc::new(AtomicU64::new(0));
            let t = Arc::clone(&took);
            LocalFabricBuilder::new(2)
                .wait_policy(WaitPolicy {
                    spin,
                    yields: 0,
                    park_initial: 1_000,
                    park_max: 1_000,
                })
                .run(move |fab| {
                    if fab.node() == 0 {
                        let t0 = Instant::now();
                        fab.park_for_inbox();
                        t.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                });
            took.load(Ordering::SeqCst)
        };
        let best = |spin| (0..5).map(|_| wait_ns(spin)).min().expect("five runs");
        let (parked, spun) = (best(0), best(CHECKS));
        let per_check = spun.saturating_sub(parked) as f64 / CHECKS as f64;
        eprintln!(
            "idle spin check: {per_check:.2} ns ({CHECKS} checks + park {spun} ns, park alone \
             {parked} ns); a 300-check budget lasts {:.0} ns",
            per_check * 300.0
        );
    }

    #[test]
    fn ping_pong_round_trip() {
        let r = LocalFabric::run(2, |fab| {
            if fab.node() == 0 {
                fab.send_msg(1, 8, 1, Payload::any(41u64));
                loop {
                    if let Some(m) = fab.try_recv() {
                        assert_eq!(*m.payload.downcast::<u64>().unwrap(), 42);
                        break;
                    }
                    fab.park_for_inbox();
                }
            } else {
                loop {
                    if let Some(m) = fab.try_recv() {
                        assert_eq!(*m.payload.downcast::<u64>().unwrap(), 41);
                        break;
                    }
                    fab.park_for_inbox();
                }
                fab.send_msg(0, 8, 1, Payload::any(42u64));
            }
        });
        assert_eq!(r.stats[0].msgs_sent, 1);
        assert_eq!(r.stats[1].msgs_sent, 1);
        assert_eq!(r.stats[0].msgs_received, 1);
    }

    #[test]
    fn per_link_fifo_holds_under_load() {
        let r = LocalFabric::run(2, |fab| {
            const N: u64 = 5_000; // > ring capacity: the sender waits for room
            if fab.node() == 0 {
                for i in 0..N {
                    fab.send_msg(1, 8, 1, Payload::any(i));
                }
            } else {
                let mut expect = 0u64;
                while expect < N {
                    match fab.try_recv() {
                        Some(m) => {
                            assert_eq!(*m.payload.downcast::<u64>().unwrap(), expect);
                            expect += 1;
                        }
                        None => fab.park_for_inbox(),
                    }
                }
            }
        });
        assert_eq!(r.stats[0].msgs_sent, 5_000);
        assert_eq!(r.stats[1].msgs_received, 5_000);
    }

    #[test]
    fn spawn_join_and_charge_ledger() {
        let r = LocalFabric::run(1, |fab| {
            let t = fab.spawn("w", |c| {
                c.charge(Bucket::Cpu, 1_000);
                c.with_stats(|s| s.polls.add(1));
            });
            fab.join(t);
            assert!(fab.is_finished(t));
        });
        assert_eq!(r.stats[0].bucket_ns[Bucket::Cpu.index()], 1_000);
        assert_eq!(r.stats[0].polls, 1);
    }

    #[test]
    fn timeout_wake_fires_without_traffic() {
        LocalFabric::run(1, |fab| {
            let deadline = fab.now() + 200_000; // 200 µs
            while fab.now() < deadline {
                fab.park_for_inbox_until(deadline);
            }
        });
    }

    #[test]
    fn wall_clock_metrics_record_real_time() {
        let r = LocalFabricBuilder::new(1).run(|fab| {
            let t0 = fab.metric_now().unwrap();
            fab.sleep(50_000);
            fab.metric_observe_since("test.sleep_ns", t0);
        });
        let m = r.metrics.expect("metrics on by default");
        let h = m.hist("test.sleep_ns").expect("histogram recorded");
        assert_eq!(h.count, 1);
        assert!(h.mean() >= 40_000, "mean {} ns too small", h.mean());
    }

    #[test]
    fn daemons_wind_down_at_shutdown() {
        LocalFabric::run(1, |fab| {
            fab.spawn_daemon("pumpish", |c| {
                while !c.shutting_down() {
                    c.park_for_inbox();
                }
            });
        });
    }

    /// `run` on a helper thread; `Err(payload)` if it panicked. Fails the
    /// test instead of hanging it if `run` does not come back.
    fn run_with_timeout<G>(nodes: usize, body: G) -> std::thread::Result<Report>
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let run = || LocalFabric::run(nodes, body);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let _ = tx.send(());
            out
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("LocalFabric::run hung");
        helper.join().expect("helper thread")
    }

    #[test]
    fn a_task_panic_fails_the_run_with_its_message() {
        let parked = Arc::new(AtomicBool::new(false));
        let payload = run_with_timeout(2, move |fab| {
            if fab.node() == 0 {
                // Never leaves by itself: only the poisoned run unwinds it.
                parked.store(true, Ordering::SeqCst);
                loop {
                    fab.park_for_inbox();
                }
            }
            while !parked.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            panic!("node 1 gave up");
        })
        .expect_err("run must re-raise the task's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 gave up"));
    }

    /// A task that waits for a dead peer in a loop of `sleep`s is unwound
    /// like one that parks: `sleep` is a blocking call of a poisoned run too.
    #[test]
    fn a_task_panic_unwinds_a_loop_of_sleeps() {
        let payload = run_with_timeout(2, |fab| {
            if fab.node() == 0 {
                loop {
                    fab.sleep(50_000);
                }
            }
            panic!("node 1 gave up");
        })
        .expect_err("run must re-raise the task's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 gave up"));
    }

    #[test]
    fn a_spawned_task_panic_unwinds_token_parkers_and_joiners() {
        let payload = run_with_timeout(1, |fab| {
            // Nobody ever unparks it: only the poisoned run gets it out.
            let parking = Arc::new(AtomicBool::new(false));
            let p2 = Arc::clone(&parking);
            let parker = fab.spawn("parker", move |c| {
                // Run until it blocks: nothing runs between these two lines.
                p2.store(true, Ordering::SeqCst);
                c.park();
            });
            let bomb = fab.spawn("bomb", move |c| {
                while !parking.load(Ordering::SeqCst) {
                    c.yield_now();
                }
                panic!("{}", String::from("bomb went off"));
            });
            fab.join(parker);
            fab.join(bomb);
            fab.park();
            unreachable!("park in a poisoned run must unwind");
        })
        .expect_err("run must re-raise the task's panic");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("bomb went off")
        );
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
        }
    }

    /// Fails the run through a handle: the running task's own (`via` is
    /// `own`), or one borrowed from another node's task.
    type Misuse = fn(own: &LocalFabric, via: &LocalFabric);

    /// The handle another node's root left in `lent`, once it has.
    fn take_lent(fab: &LocalFabric, lent: &Mutex<Option<LocalFabric>>) -> LocalFabric {
        loop {
            if let Some(h) = locked(lent).take() {
                return h;
            }
            fab.yield_now();
        }
    }

    /// The message `misuse` fails the run with, through the task's own handle
    /// (`lend` false) or through one lent by the root of the other node.
    fn misuse_message<M>(lend: bool, misuse: M) -> String
    where
        M: Fn(&LocalFabric, &LocalFabric) + Send + Sync + 'static,
    {
        let lent = Arc::new(Mutex::new(None));
        let payload = run_with_timeout(1 + lend as usize, move |fab| {
            if !lend {
                return misuse(&fab, &fab);
            }
            if fab.node() == 1 {
                *locked(&lent) = Some(fab.clone());
                return;
            }
            let theirs = take_lent(&fab, &lent);
            misuse(&fab, &theirs);
        })
        .expect_err("the misuse must fail the run");
        panic_message(payload)
    }

    /// The twin of the simulator's `kernel_reentry_panics_on_every_backend`:
    /// calling back into the fabric from a `with_stats` closure fails the run
    /// with the rule. Through a handle lent by another node's task the outer
    /// call already fails, with the handle rule.
    #[test]
    fn reentry_from_a_probe_closure_panics_with_the_rule() {
        let cases: [(&str, Misuse); 6] = [
            ("charge in with_stats", |_, c| {
                c.with_stats(|_| c.charge(Bucket::Cpu, 1))
            }),
            ("with_stats in with_stats", |_, c| {
                c.with_stats(|_| c.with_stats(|s| s.polls.add(1)))
            }),
            ("park in with_stats", |_, c| c.with_stats(|_| c.park())),
            ("park_for_inbox in with_stats", |_, c| {
                c.send_msg(c.node(), 8, 1, Payload::any(0u64));
                c.with_stats(|_| c.park_for_inbox())
            }),
            ("unpark in with_stats", |_, c| {
                c.with_stats(|_| c.unpark(c.task_id()))
            }),
            ("join in with_stats", |own, c| {
                let done = own.spawn("done", |_| {});
                own.join(done);
                c.with_stats(|_| c.join(done))
            }),
        ];
        for (what, reenter) in cases {
            for lend in [false, true] {
                let msg = misuse_message(lend, reenter);
                let rule = if lend {
                    crate::NOT_ITS_NODE
                } else {
                    "must not call back into the fabric"
                };
                assert!(msg.contains(rule), "{what} (lent: {lend}): {msg}");
            }
        }
    }

    /// A handle works only for a task of its own node: every call that
    /// touches the node's scheduler, probe or links fails the run with the
    /// handle rule from another node's task and from outside the run, where
    /// only asking the handle what it is goes through. From a sibling task of
    /// the handle's own node the calls that do not block go through
    /// (counting through a sibling's handle is what `probe_totals` does);
    /// the conformance suite's `lent_handle_*` check the blocking calls,
    /// which fail with their own rule, and `charge`, `send_msg` and
    /// `try_recv` from a sibling on both fabrics.
    #[test]
    fn blocking_through_a_borrowed_handle_panics_with_the_rule() {
        type Call = fn(&LocalFabric);
        // The flag: whether this test makes the call from a sibling.
        let calls: [(&str, Call, bool); 17] = [
            ("park", |c| c.park(), false),
            ("join", |c| c.join(c.task_id()), false),
            ("sleep", |c| c.sleep(1), false),
            ("yield_now", |c| c.yield_now(), false),
            ("park_for_inbox", |c| c.park_for_inbox(), false),
            (
                "park_for_inbox_until",
                |c| c.park_for_inbox_until(u64::MAX),
                false,
            ),
            ("spawn", |c| _ = c.spawn("child", |_| {}), true),
            (
                "spawn_daemon",
                |c| _ = c.spawn_daemon("child", |_| {}),
                true,
            ),
            ("unpark", |c| c.unpark(c.task_id()), true),
            ("is_finished", |c| _ = c.is_finished(c.task_id()), true),
            ("charge", |c| c.charge(Bucket::Cpu, 1), false),
            ("with_stats", |c| c.with_stats(|s| s.polls.add(1)), true),
            ("metric_observe", |c| c.metric_observe("t.v", 1), true),
            ("snapshot", |c| _ = c.snapshot(), true),
            ("node_data", |c| _ = c.node_data(|| 0u8), true),
            (
                "send_msg",
                |c| c.send_msg(c.node(), 8, 0, Payload::any(0u64)),
                false,
            ),
            ("try_recv", |c| _ = c.try_recv(), false),
        ];
        let rule = crate::NOT_ITS_NODE;
        for (what, call, from_a_sibling) in calls {
            let msg = misuse_message(true, move |_, theirs| call(theirs));
            assert_eq!(msg, rule, "{what} from another node");

            let escaped = Arc::new(Mutex::new(None));
            let e2 = Arc::clone(&escaped);
            run_with_timeout(1, move |fab| {
                *locked(&e2) = Some(fab.clone());
                if from_a_sibling {
                    let parent = fab.clone();
                    let t = fab.spawn("sibling", move |_| call(&parent));
                    fab.join(t);
                } else if what == "send_msg" {
                    // What the outside call below sees in the inbox.
                    call(&fab);
                }
            })
            .unwrap_or_else(|_| panic!("{what} through a sibling's handle failed"));

            // The run is over; the handle still says what it is.
            let outside = locked(&escaped).take().expect("a root left its handle");
            assert_eq!((outside.node(), outside.nodes()), (0, 1));
            assert_eq!(outside.task_id(), TaskId(0));
            assert_eq!(outside.cost().faults, None);
            assert!(outside.now() > 0 && outside.shutting_down() && outside.metrics_enabled());
            assert_eq!(outside.inbox_len(), (what == "send_msg") as usize);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&outside)))
                .expect_err("a call from outside the run must panic");
            assert_eq!(panic_message(caught), rule, "{what} from outside the run");
        }

        // A refused `try_recv` takes nothing: the frame is still its owner's.
        let lent = Arc::new(Mutex::new(None));
        let refused = Arc::new(AtomicBool::new(false));
        run_with_timeout(2, move |fab| {
            if fab.node() == 1 {
                *locked(&lent) = Some(fab.clone());
                while !refused.load(Ordering::SeqCst) {
                    fab.yield_now();
                }
                assert_eq!(value(fab.try_recv().expect("the refused frame")), 7);
                return;
            }
            let theirs = take_lent(&fab, &lent);
            fab.send_msg(1, 8, 0, Payload::any(7u64));
            assert_eq!(theirs.inbox_len(), 1);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| theirs.try_recv()))
                    .expect_err("node 0 must not receive for node 1");
            assert_eq!(panic_message(caught), rule);
            assert_eq!(theirs.inbox_len(), 1);
            refused.store(true, Ordering::SeqCst);
        })
        .expect("the run completes");
    }

    /// A closure that panics runs on its own thread's block with no node lock
    /// held: its peers keep counting, and the run fails with its message.
    #[test]
    fn a_panicking_with_stats_closure_does_not_poison_its_peers() {
        let counted = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&counted);
        let payload = run_with_timeout(1, move |fab| {
            let bomb = fab.spawn("bomb", |c| c.with_stats(|_| panic!("closure gave up")));
            fab.join(bomb);
            // Same node, after the panic: counting and a merge still work.
            fab.with_stats(|s| s.polls.add(1));
            fab.charge(Bucket::Cpu, 5);
            assert_eq!(fab.snapshot().stats[0].polls, 1);
            c2.store(true, Ordering::SeqCst);
        })
        .expect_err("run must re-raise the closure's panic");
        assert_eq!(panic_message(payload), "closure gave up");
        assert!(
            counted.load(Ordering::SeqCst),
            "the peer did not get through"
        );
    }

    #[test]
    fn park_only_policy_still_completes() {
        // The pre-adaptive behavior (fixed 200 µs slices, no spin) remains
        // available and correct — the before to the adaptive wait's after.
        let r = LocalFabricBuilder::new(2)
            .wait_policy(WaitPolicy::park_only(200_000))
            .run(|fab| {
                if fab.node() == 0 {
                    fab.send_msg(1, 8, 1, Payload::any(9u64));
                } else {
                    loop {
                        if fab.try_recv().is_some() {
                            break;
                        }
                        fab.park_for_inbox();
                    }
                }
            });
        assert_eq!(r.stats[1].msgs_received, 1);
    }
}
