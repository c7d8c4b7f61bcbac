//! The wall-clock fabric: real OS threads, lock-free rings, real nanoseconds.
//!
//! [`LocalFabric`] runs every task on an OS thread taken from a per-node
//! worker pool and carries frames over per-(src, dst) ring buffers with
//! parked-thread wakeup, so the benchmarks built on the AM substrate
//! (null-RMI, fig5-style exchanges, EM3D ghost traffic) execute on real
//! hardware and the latency histograms hold *measured* nanoseconds instead
//! of modeled ones.
//!
//! The data path is built for throughput and tail latency (DESIGN.md §4a):
//!
//! * **Lock-free ring fast path.** Each (src, dst) link is a bounded
//!   MPMC ring in the Vyukov style — producers claim a slot by CAS on a
//!   cache-line-padded tail cursor and publish it with a per-slot sequence
//!   stamp; the producer mutex survives only as the *overflow* slow path
//!   taken when the ring is full (or an earlier overflow is still
//!   draining). Depth reads are pure atomic arithmetic and never block a
//!   concurrent sender.
//! * **Adaptive blocking waits.** Inbox parks escalate spin → yield →
//!   timed park with exponentially growing slices capped at the reliable
//!   layer's initial retransmit deadline ([`WaitPolicy`]); a productive
//!   wake resets the ladder. The fixed 200 µs slice of the first version
//!   is available as [`WaitPolicy::park_only`] for comparison.
//! * **Wakeup hub without a sender-side mutex.** Frame delivery bumps an
//!   atomic per-node generation; the hub mutex + condvar are touched only
//!   when a waiter is actually parked.
//! * **Pooled tasks, targeted wakeups.** `spawn` hands the job to the most
//!   recently idled worker thread of the target node and creates an OS
//!   thread only when none is idle; `park`/`unpark`/`join` block on and
//!   signal the one task concerned, never the node or the process.
//! * **Bookkeeping off the message path.** Counters, the charge ledger,
//!   metrics and `node_data` lookups go to a plain per-worker [`Block`] with
//!   no lock and no atomic; it is folded into the node's totals once per
//!   send or wakeup, before the frame or token can be seen, and whenever
//!   its task is about to wait anyway (see [`Block`]).
//!
//! Semantics relative to the simulated fabric:
//!
//! * **Clocks are wall-clock**: `now()` is nanoseconds since the run's
//!   epoch; `charge()` only feeds the per-bucket ledger (it cannot advance
//!   real time). The modeled `delay` of `send_msg` is ignored — the real
//!   machine supplies the real latency.
//! * **Per-link FIFO holds**: each (src, dst) pair has its own ring; the
//!   ring → overflow → ring transition preserves send order by protocol
//!   (see [`Ring`]). No cross-link order is promised (none is promised by
//!   the simulator either — only observed, deterministically).
//! * **Tasks on one node run concurrently** (the simulator runs them
//!   cooperatively, one at a time). The layers above were audited for this:
//!   all shared runtime state lives behind locks, and the contract already
//!   allows spurious wakeups from `park_for_inbox`.
//! * **No fault injection**: `faults_enabled()` is false and the builder
//!   rejects cost models with a fault model installed, so the reliable
//!   layer stays in its plain-send mode.

use crate::Fabric;
use mpmd_sim::metrics::bucket_index;
use mpmd_sim::{
    size_bucket, Bucket, CostModel, Histogram, MetricsRegistry, Msg, NodeMetrics, Payload, Report,
    Snapshot, Stats, TaskId, Time, WaitPhase, WaitPolicy, Waiter,
};
use std::any::{Any, TypeId};
use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Pad to a cache line so the producer cursor, consumer cursor and overflow
/// length never false-share (128 covers adjacent-line prefetching on x86).
#[repr(align(128))]
struct Pad<T>(T);

/// One ring slot: the sequence stamp both publishes the payload and encodes
/// slot state. For a slot at index `i` with capacity `cap`:
///
/// * `seq == pos`      — free for the producer claiming position `pos`
///   (`pos ≡ i (mod cap)`); initial state is `seq = i`.
/// * `seq == pos + 1`  — published by that producer, ready for the consumer.
/// * `seq == pos + cap` — consumed; free for the *next lap's* producer.
struct Slot {
    seq: AtomicUsize,
    msg: UnsafeCell<Option<Msg>>,
}

/// One direction of one link: a bounded lock-free ring plus an unbounded
/// mutex-guarded overflow queue, so sends never block and never drop.
///
/// **Fast path** (`try_push_ring` / `try_pop_ring`): Vyukov-style bounded
/// MPMC. Producers CAS-claim the tail cursor, write the slot, then publish
/// with a Release store of the slot's sequence stamp; the consumer's
/// Acquire load of that stamp is the only synchronization the payload
/// handoff needs (the tail CAS itself can be Relaxed). The consumer side is
/// additionally serialized by `cons` because concurrent receivers on one
/// node must also agree on the ring→overflow fallthrough order.
///
/// **FIFO across the overflow transition** is preserved by protocol:
///
/// * A producer uses the lock-free path only while the overflow is
///   observably empty; otherwise it takes `prod` and appends *behind* the
///   overflow. Once a task has a frame in the overflow, its later frames
///   keep queueing there until the overflow drains (its own earlier
///   increment of `overflow_len` stays visible to it), so for any single
///   sender: everything in the ring is older than anything it has in the
///   overflow.
/// * The consumer drains the ring before touching the overflow, and —
///   crucial subtlety — re-checks the ring *after* acquiring `prod`: the
///   lock acquisition synchronizes with the producer that appended the
///   overflow frame, making every ring publish sequenced before that
///   append visible. Without the re-check, a consumer whose pre-lock ring
///   probe raced a publish could pop a newer overflow frame first.
struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    /// Producer claim cursor (CAS).
    tail: Pad<AtomicUsize>,
    /// Consumer cursor; written only under `cons`.
    head: Pad<AtomicUsize>,
    /// Frames in the overflow queue. Updated only under `prod`, read
    /// lock-free by producers (fast-path eligibility) and by `depth`.
    overflow_len: Pad<AtomicUsize>,
    /// Overflow slow path; doubles as the producer-serialization point for
    /// full-ring traffic. Never touched by the lock-free fast path.
    prod: Mutex<VecDeque<Msg>>,
    /// Serializes consumers.
    cons: Mutex<()>,
}

// Slot payloads are written only by the producer that CAS-claimed the
// position and read only by the consumer that observed the Release-stored
// sequence stamp with an Acquire load.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity");
        // The sequence encoding needs `published(pos) = pos + 1` distinct
        // from `free-for-next-lap(pos) = pos + cap`: a 1-slot ring is
        // carried as a 2-slot ring (behavior — constant overflow churn —
        // is identical).
        let capacity = capacity.max(2);
        Ring {
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    msg: UnsafeCell::new(None),
                })
                .collect(),
            mask: capacity - 1,
            tail: Pad(AtomicUsize::new(0)),
            head: Pad(AtomicUsize::new(0)),
            overflow_len: Pad(AtomicUsize::new(0)),
            prod: Mutex::new(VecDeque::new()),
            cons: Mutex::new(()),
        }
    }

    /// Lock-free slot claim; `false` means the ring is full. On success the
    /// message has been moved out of `msg` and published.
    fn try_push_ring(&self, msg: &mut Option<Msg>) -> bool {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq.cmp(&pos) {
                std::cmp::Ordering::Equal => {
                    match self.tail.0.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            unsafe { *slot.msg.get() = msg.take() };
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return true;
                        }
                        Err(cur) => pos = cur,
                    }
                }
                // The slot still holds the previous lap: ring is full.
                std::cmp::Ordering::Less => return false,
                // Another producer advanced past us; chase the tail.
                std::cmp::Ordering::Greater => pos = self.tail.0.load(Ordering::Relaxed),
            }
        }
    }

    /// Pop the slot at `head` if its producer has published it. Caller
    /// holds `cons` (or has exclusive access).
    fn try_pop_ring(&self) -> Option<Msg> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let msg = unsafe { (*slot.msg.get()).take() };
        debug_assert!(msg.is_some(), "published slot was empty");
        // Free the slot for the next lap's producer, then advance.
        slot.seq
            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
        self.head.0.store(pos.wrapping_add(1), Ordering::Relaxed);
        msg
    }

    fn push(&self, msg: Msg) {
        let mut msg = Some(msg);
        // Fast path: legal only while the overflow is observably empty —
        // otherwise FIFO requires queueing behind the overflowed frames.
        if self.overflow_len.0.load(Ordering::Acquire) == 0 && self.try_push_ring(&mut msg) {
            return;
        }
        let mut overflow = self.prod.lock().unwrap();
        // Re-check under the lock: the consumer may have drained the
        // overflow (and freed ring slots) since the fast-path probe.
        if overflow.is_empty() && self.try_push_ring(&mut msg) {
            return;
        }
        overflow.push_back(msg.take().expect("message consumed twice"));
        self.overflow_len.0.store(overflow.len(), Ordering::Release);
    }

    fn pop(&self) -> Option<Msg> {
        let _c = self.cons.lock().unwrap();
        if let Some(m) = self.try_pop_ring() {
            return Some(m);
        }
        if self.overflow_len.0.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut overflow = self.prod.lock().unwrap();
        // See the type docs: ring publishes sequenced before the oldest
        // overflow append became visible when we acquired `prod` — drain
        // them first or per-link FIFO breaks.
        if let Some(m) = self.try_pop_ring() {
            return Some(m);
        }
        let m = overflow.pop_front();
        self.overflow_len.0.store(overflow.len(), Ordering::Release);
        m
    }

    /// Frames queued on this link. Pure atomic reads — never takes a lock,
    /// so metric sampling (`inbox_depth`) cannot block a concurrent sender.
    /// Transient over-/under-counts during racing claims are acceptable in
    /// a depth gauge; the value is exact whenever the link is quiescent.
    fn depth(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        let ring = tail.wrapping_sub(head).min(self.slots.len());
        ring + self.overflow_len.0.load(Ordering::Acquire)
    }
}

/// Wakeup hub for one node. Every frame delivery (and every unpark
/// targeting the node) bumps `gen`; blocked tasks wait for "something
/// happened here" without a thundering-herd spin. The mutex + condvar are
/// touched only when `waiters` says somebody is actually parked, so the
/// sender-side cost of a bump against a spinning (or absent) receiver is
/// two uncontended atomics.
struct NodeParker {
    gen: AtomicU64,
    /// Tasks currently inside `park_timeout`.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl NodeParker {
    fn new() -> Self {
        NodeParker {
            gen: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// SeqCst throughout: the bump's `gen` increment must be globally
    /// ordered against a registering waiter's `waiters` increment, or a
    /// bump could both miss the waiter count and have its `gen` change
    /// missed by the waiter's re-check (the classic flag/flag race).
    fn bump(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            // Taking the lock (even empty) fences against a waiter that
            // has registered but not yet entered `wait_timeout`.
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Park until the generation moves past `seen` or `dur` elapses.
    /// Spurious returns are fine; callers re-check their predicate.
    fn park_timeout(&self, seen: u64, dur: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let g = self.lock.lock().unwrap();
            if self.gen.load(Ordering::SeqCst) == seen {
                let _ = self.cv.wait_timeout(g, dur).unwrap();
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Lock ignoring poisoning. None of the task, pool or shutdown mutexes is
/// held while user code runs, so a poisoned one only says that some task
/// panicked elsewhere — which `run` re-raises itself, with the original
/// message rather than `PoisonError`'s.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bookkeeping for one task. Lives in its node's table shard from spawn
/// until the task exits; handles that outlive it keep it through their `Arc`.
///
/// `lock` + `cv` carry both targeted wakeups: the task itself blocks on them
/// in `park`, other tasks block on them in `join`. Each is a flag/flag
/// handshake under SeqCst, as in [`NodeParker`]: the waiter raises its flag
/// (`sleeping` / `joined`) and *then* reads the condition (`unparked` /
/// `finished`) under `lock`; the waker sets the condition and *then* reads
/// the flag. At least one side sees the other's store, so either the waiter
/// skips the wait or the waker takes `lock` — which it can only get before
/// the waiter's locked check or after the waiter is inside `cv.wait` — and
/// notifies.
struct TaskRec {
    node: usize,
    /// Consumable wakeup token: set by `unpark`, consumed by `park`.
    unparked: AtomicBool,
    /// The task is blocked, or about to block, on `cv` inside `park`.
    sleeping: AtomicBool,
    /// The task is inside an inbox wait, where it sleeps on the *node*
    /// parker: the one state in which `unpark` must bump that parker.
    inbox_waiting: AtomicBool,
    finished: AtomicBool,
    /// Some task has blocked in `join` on this one.
    joined: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl TaskRec {
    fn new(node: usize) -> Self {
        TaskRec {
            node,
            unparked: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            inbox_waiting: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            joined: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Consume the wakeup token if it is set. The load first keeps a
    /// spinning waiter from bouncing the line with a swap per iteration; it
    /// is SeqCst because it is the waiter's read in the handshakes.
    fn take_token(&self) -> bool {
        self.unparked.load(Ordering::SeqCst) && self.unparked.swap(false, Ordering::SeqCst)
    }

    /// Wake whoever blocks on `cv`. Taking the lock (even empty) fences
    /// against a waiter that has raised its flag but not yet entered `wait`.
    fn notify(&self) {
        drop(locked(&self.lock));
        self.cv.notify_all();
    }
}

type TaskFn = Box<dyn FnOnce(LocalFabric) + Send>;

/// One task handed to a worker.
struct Job {
    f: TaskFn,
    fab: LocalFabric,
    daemon: bool,
}

enum Mail {
    Empty,
    Job(Job),
    Stop,
}

/// A pooled OS thread. It belongs to one node for life and cycles run job →
/// exit bookkeeping → idle → wait for mail.
struct Worker {
    mail: Mutex<Mail>,
    cv: Condvar,
}

/// One node's idle workers, most recently idled last (`spawn` pops the hot
/// one). Once `stopped`, workers exit instead of idling and `spawn` finds
/// nobody here, so it creates a thread that `run` then joins.
struct Pool {
    idle: Vec<Arc<Worker>>,
    stopped: bool,
    /// Workers ever created on this node; only names them.
    created: usize,
}

/// The payload that unwinds a task blocked in a poisoned run. Raised with
/// `resume_unwind`, so the panic hook stays quiet; never reported.
struct RunPoisoned;

type Singleton = Arc<dyn Any + Send + Sync>;

/// A few values keyed by metric name, for one thread. A dozen names at most,
/// so one scan of the (densely packed) names beats hashing them; each
/// comparison tries the address first — a call site passes the same literal
/// every time — and the value second, because two call sites naming the same
/// metric may hold different copies of the literal.
#[derive(Default)]
struct NameTable<V> {
    names: Vec<&'static str>,
    vals: Vec<V>,
}

impl<V: Default> NameTable<V> {
    fn slot(&mut self, name: &'static str) -> &mut V {
        let found = self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name);
        let i = found.unwrap_or_else(|| {
            self.names.push(name);
            self.vals.push(V::default());
            self.names.len() - 1
        });
        &mut self.vals[i]
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut V)> {
        self.names.iter().copied().zip(self.vals.iter_mut())
    }
}

/// One worker thread's probe block: what its tasks counted, charged and
/// observed since the last merge, and the node singletons they have fetched.
/// Plain fields written by the owning thread alone — no lock, no atomic.
///
/// [`LfInner::merge`] folds a block into the node's `stats` / `metrics`
/// totals and zeroes it, in two kinds of place:
///
/// * **Before anything the task did can be observed through the fabric** —
///   in `send_msg` ahead of the push, in `unpark`, in `spawn*`, and at task
///   exit ahead of `finished`. Whoever receives that frame, is woken by that
///   token, runs as that child or joins that task therefore reads totals that
///   hold everything the task counted up to then, which is what makes a
///   snapshot taken behind a barrier exact.
/// * **Where the task stops running anyway** — an inbox wait that found
///   nothing, the park phase of `park`, `join`, `sleep` — and in the task's
///   own `snapshot()`, so a long wait does not sit on counts.
///
/// The totals are exact once a run has ended; a mid-run snapshot holds
/// everything that happened before it by way of the fabric, and everything
/// each task did up to its last wait.
#[derive(Default)]
struct Block {
    stats: Stats,
    /// `None`: not added to since the last merge. An add of 0 still creates
    /// the counter in the report, as it did under the per-node lock.
    counters: NameTable<Option<u64>>,
    hists: NameTable<Histogram>,
    /// Which halves `merge` has to fold; raised by the three accessors below
    /// and nowhere else, so a counting site cannot forget them.
    stats_dirty: bool,
    metrics_dirty: bool,
    data: Vec<(TypeId, Singleton)>,
}

impl Block {
    fn stats(&mut self) -> &mut Stats {
        self.stats_dirty = true;
        &mut self.stats
    }

    fn counter(&mut self, name: &'static str) -> &mut u64 {
        self.metrics_dirty = true;
        self.counters.slot(name).get_or_insert(0)
    }

    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        self.metrics_dirty = true;
        self.hists.slot(name)
    }
}

/// A worker's block and the `(run, node)` it counts for. `run` is only ever
/// compared: the worker holds an `Arc` of its run for as long as this value
/// exists, so no other run can sit at that address.
struct Probe {
    run: *const LfInner,
    node: usize,
    block: Block,
}

/// What a task did wrong when `PROBE` is found borrowed.
const REENTRY: &str = "LocalFabric re-entered from a `with_stats` closure or a `node_data` \
                       init: they run on the calling thread's probe block and must not call \
                       back into the fabric";

struct LfInner {
    nodes: usize,
    cost: CostModel,
    /// Blocking-wait escalation policy of every task in the run.
    wait: WaitPolicy,
    epoch: Instant,
    rings: Vec<Ring>, // src * nodes + dst
    parkers: Vec<NodeParker>,
    /// Per-node counter totals: the merge target of the workers' probe
    /// blocks, locked only by [`LfInner::merge`] and by readers.
    stats: Vec<Mutex<Stats>>,
    /// Per-node typed singletons. A worker asks here once per type and
    /// serves every later `node_data` call from its block's cache.
    node_data: Vec<Mutex<HashMap<TypeId, Singleton>>>,
    /// Per-node metric totals, the other merge target.
    metrics: Option<Vec<Mutex<NodeMetrics>>>,
    /// Round-robin start index for each node's link scan, so one chatty
    /// neighbor cannot starve the others.
    rotate: Vec<AtomicUsize>,
    /// Live tasks by id, one shard per node. Task ids are
    /// `seq * nodes + node`, so an id names its shard and `unpark`/`join`
    /// lock only the target node's. A record is removed when its task exits:
    /// the table holds the live set, not the run's history.
    tasks: Vec<Mutex<HashMap<u32, Arc<TaskRec>>>>,
    /// Per-node task sequence numbers (the `seq` above).
    next_task: Vec<AtomicU32>,
    pools: Vec<Mutex<Pool>>,
    /// Live non-daemon tasks, plus one held by `run` until every root is
    /// spawned; shutdown begins when this reaches zero.
    live: AtomicUsize,
    shutting_down: AtomicBool,
    /// Shutdown signaling to `run`; nothing else waits here.
    fin: Mutex<()>,
    fin_cv: Condvar,
    /// Every worker thread ever created, joined by `run` after shutdown.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Payload of the first task panic; `run` re-raises it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl LfInner {
    fn ring(&self, src: usize, dst: usize) -> &Ring {
        &self.rings[src * self.nodes + dst]
    }

    fn inbox_len(&self, node: usize) -> usize {
        (0..self.nodes).map(|s| self.ring(s, node).depth()).sum()
    }

    /// The record of live task `t`; `None` once it has exited (an id this
    /// run issued whose record is gone). Panics on an id never issued.
    fn task(&self, t: TaskId) -> Option<Arc<TaskRec>> {
        let node = t.0 as usize % self.nodes;
        let rec = locked(&self.tasks[node]).get(&t.0).cloned();
        if rec.is_none() {
            let issued = self.next_task[node].load(Ordering::SeqCst);
            assert!(t.0 / (self.nodes as u32) < issued, "unknown task {t:?}");
        }
        rec
    }

    /// Set `rec`'s wakeup token and wake the task wherever it sleeps: on its
    /// own condvar in `park`, on its node's parker in an inbox wait (the
    /// CC++ poller and the AM daemons are stopped that way).
    fn unpark(&self, rec: &TaskRec) {
        rec.unparked.store(true, Ordering::SeqCst);
        if rec.sleeping.load(Ordering::SeqCst) {
            rec.notify();
        }
        if rec.inbox_waiting.load(Ordering::SeqCst) {
            self.parkers[rec.node].bump();
        }
    }

    /// Wake everything that blocks: inbox waiters through their node
    /// parkers, token parkers one by one, and `run`.
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for p in &self.parkers {
            p.bump();
        }
        for shard in &self.tasks {
            // Collected first: `notify` takes task locks, which must not
            // nest inside the shard lock.
            let recs: Vec<_> = locked(shard).values().cloned().collect();
            for rec in recs {
                if rec.sleeping.load(Ordering::SeqCst) {
                    rec.notify();
                }
            }
        }
        drop(locked(&self.fin));
        self.fin_cv.notify_all();
    }

    /// In a run poisoned by a task panic, unwind the calling task too: what
    /// it is about to block on may never come. Called only once
    /// `shutting_down` is set, so the healthy paths never take this lock.
    fn check_poison(&self) {
        if locked(&self.panic).is_some() {
            std::panic::resume_unwind(Box::new(RunPoisoned));
        }
    }

    /// Tell every idle worker to exit and join all worker threads. A
    /// busy worker (a daemon still winding down) exits when its job does; a
    /// thread created during the joins was pushed to `handles` by a task
    /// whose own worker is still being joined, so the loop sees it.
    fn stop_pool(&self) {
        for pool in &self.pools {
            let idle = {
                let mut pool = locked(pool);
                pool.stopped = true;
                std::mem::take(&mut pool.idle)
            };
            for w in idle {
                *locked(&w.mail) = Mail::Stop;
                w.cv.notify_one();
            }
        }
        loop {
            let batch = std::mem::take(&mut *locked(&self.handles));
            if batch.is_empty() {
                return;
            }
            for h in batch {
                h.join().expect("worker died outside a job");
            }
        }
    }

    /// Release one hold on `live` (a non-daemon task returned, or `run`
    /// finished spawning roots); the last one begins the shutdown.
    fn release_live(&self) {
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.begin_shutdown();
        }
    }

    /// Fold `b` into `node`'s totals and zero it. Besides the readers below
    /// this is the only place the two total locks are taken, and no user
    /// code runs under either.
    fn merge(&self, node: usize, b: &mut Block) {
        if b.stats_dirty {
            locked(&self.stats[node]).merge(&b.stats);
            b.stats = Stats::default();
            b.stats_dirty = false;
        }
        if b.metrics_dirty {
            let shards = self
                .metrics
                .as_ref()
                .expect("metric recorded with metrics off");
            let mut m = locked(&shards[node]);
            for (name, add) in b.counters.iter_mut() {
                if let Some(add) = add.take() {
                    *m.counters.entry(name).or_insert(0) += add;
                }
            }
            for (name, h) in b.hists.iter_mut() {
                if h.count > 0 {
                    drain_hist(m.hists.entry(name).or_default(), h);
                }
            }
            b.metrics_dirty = false;
        }
    }

    fn stats(&self) -> Vec<Stats> {
        self.stats.iter().map(|s| locked(s).clone()).collect()
    }

    fn registry(&self) -> Option<MetricsRegistry> {
        self.metrics.as_ref().map(|shards| MetricsRegistry {
            nodes: shards.iter().map(|m| locked(m).clone()).collect(),
        })
    }
}

/// Move `h` into `total` and leave it empty, touching only the buckets between
/// its smallest and largest sample: a block's histogram holds a sample or two
/// when it is merged, not 65 buckets' worth.
fn drain_hist(total: &mut Histogram, h: &mut Histogram) {
    if total.count == 0 {
        (total.min, total.max) = (h.min, h.max);
    } else {
        total.min = total.min.min(h.min);
        total.max = total.max.max(h.max);
    }
    total.count += std::mem::take(&mut h.count);
    total.sum += std::mem::take(&mut h.sum);
    for i in bucket_index(h.min)..=bucket_index(h.max) {
        total.buckets[i] += std::mem::take(&mut h.buckets[i]);
    }
    (h.min, h.max) = (0, 0);
}

thread_local! {
    /// This thread's wait-escalation state. A `LocalFabric` task *is* an OS
    /// thread, so thread-local storage is exactly per-task storage; const
    /// init keeps the first park allocation-free.
    static WAITER: RefCell<Option<Waiter>> = const { RefCell::new(None) };

    /// This worker's probe block; `None` on every other thread. Borrowed for
    /// the length of one fabric call, user closure included, which is what
    /// turns a call back into the fabric into a panic instead of a hang.
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Configuration for a wall-clock run.
pub struct LocalFabricBuilder {
    nodes: usize,
    cost: CostModel,
    metrics: bool,
    wait: WaitPolicy,
    ring_capacity: usize,
}

impl LocalFabricBuilder {
    /// A machine of `nodes` OS-thread nodes with the default cost model.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "at least one node");
        LocalFabricBuilder {
            nodes,
            cost: CostModel::default(),
            metrics: true,
            // Host-adaptive: on a single-CPU machine spinning starves the
            // very peer being waited for (see `WaitPolicy::auto_for`).
            wait: WaitPolicy::auto_for(std::thread::available_parallelism().map_or(1, |p| p.get())),
            ring_capacity: 1024,
        }
    }

    /// Use `cost` for the charge ledger (unit costs only; the fault model
    /// must be absent — fault injection needs the deterministic kernel).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        assert!(
            cost.faults.is_none(),
            "LocalFabric does not support fault injection"
        );
        self.cost = cost;
        self
    }

    /// Enable or disable the metrics registry (on by default — wall-clock
    /// histograms are the point of this backend).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Per-link ring capacity (power of two; 1 is carried as 2).
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "ring capacity");
        self.ring_capacity = cap;
        self
    }

    /// Blocking-wait escalation policy for every task in the run.
    pub fn wait_policy(mut self, wait: WaitPolicy) -> Self {
        wait.validate();
        self.wait = wait;
        self
    }

    /// Run `body` once per node (as node 0..N-1) on real OS threads and
    /// collect the report: per-node wall-clock elapsed time, the charge
    /// ledger, and the measured-nanosecond metrics registry.
    pub fn run<G>(self, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        let n = self.nodes;
        let cap = self.ring_capacity;
        let inner = Arc::new(LfInner {
            nodes: n,
            cost: self.cost,
            wait: self.wait,
            epoch: Instant::now(),
            rings: (0..n * n).map(|_| Ring::new(cap)).collect(),
            parkers: (0..n).map(|_| NodeParker::new()).collect(),
            stats: (0..n).map(|_| Mutex::new(Stats::default())).collect(),
            node_data: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            metrics: self
                .metrics
                .then(|| (0..n).map(|_| Mutex::new(NodeMetrics::default())).collect()),
            rotate: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            tasks: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            next_task: (0..n).map(|_| AtomicU32::new(0)).collect(),
            pools: (0..n)
                .map(|_| {
                    Mutex::new(Pool {
                        idle: Vec::new(),
                        stopped: false,
                        created: 0,
                    })
                })
                .collect(),
            // `run`'s own hold: a root that returns before its siblings are
            // spawned must not start the shutdown.
            live: AtomicUsize::new(1),
            shutting_down: AtomicBool::new(false),
            fin: Mutex::new(()),
            fin_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
        });
        let body = Arc::new(body);
        for node in 0..n {
            let b = Arc::clone(&body);
            spawn_task(&inner, node, false, Box::new(move |fab| b(fab)));
        }
        inner.release_live();
        // The last non-daemon task (or the first panic) begins the
        // shutdown; daemons then wind down and `stop_pool` waits them out.
        {
            let mut g = locked(&inner.fin);
            while !inner.shutting_down.load(Ordering::SeqCst) {
                g = inner.fin_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        inner.stop_pool();
        if let Some(payload) = locked(&inner.panic).take() {
            std::panic::resume_unwind(payload);
        }
        let elapsed = inner.epoch.elapsed().as_nanos() as u64;
        Report {
            clocks: vec![elapsed; n],
            stats: inner.stats(),
            trace: None,
            metrics: inner.registry(),
        }
    }
}

/// Register a new task on `node` and hand it to that node's most recently
/// idled worker, or to a new worker thread if none is idle.
fn spawn_task(inner: &Arc<LfInner>, node: usize, daemon: bool, f: TaskFn) -> TaskId {
    assert!(node < inner.nodes, "spawn on nonexistent node {node}");
    let seq = inner.next_task[node].fetch_add(1, Ordering::SeqCst);
    let id = seq
        .checked_mul(inner.nodes as u32)
        .and_then(|base| base.checked_add(node as u32))
        .map(TaskId)
        .expect("task ids exhausted");
    let rec = Arc::new(TaskRec::new(node));
    locked(&inner.tasks[node]).insert(id.0, Arc::clone(&rec));
    if !daemon {
        inner.live.fetch_add(1, Ordering::SeqCst);
    }
    let job = Job {
        f,
        fab: LocalFabric {
            inner: Arc::clone(inner),
            node,
            task: id,
            rec,
        },
        daemon,
    };
    let mut pool = locked(&inner.pools[node]);
    if let Some(w) = pool.idle.pop() {
        drop(pool);
        *locked(&w.mail) = Mail::Job(job);
        w.cv.notify_one();
        return id;
    }
    let k = pool.created;
    pool.created += 1;
    drop(pool);
    let worker_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("lf-{node}-w{k}"))
        .spawn(move || worker_main(&worker_inner, node, job))
        .expect("OS thread spawn failed");
    locked(&inner.handles).push(handle);
    id
}

fn worker_main(inner: &LfInner, node: usize, first: Job) {
    PROBE.set(Some(Probe {
        run: inner,
        node,
        block: Block::default(),
    }));
    worker_loop(inner, node, first);
    // Drops the cached singletons now rather than whenever the platform
    // runs thread-local destructors.
    PROBE.set(None);
}

fn worker_loop(inner: &LfInner, node: usize, first: Job) {
    let me = Arc::new(Worker {
        mail: Mutex::new(Mail::Empty),
        cv: Condvar::new(),
    });
    let mut job = first;
    loop {
        let Job { f, fab, daemon } = job;
        let (id, rec) = (fab.task, Arc::clone(&fab.rec));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(fab)));
        // Before the exit is announced: whoever joins this task reads totals
        // that include it.
        PROBE.with_borrow_mut(|p| {
            let p = p.as_mut().expect("worker without its probe block");
            inner.merge(node, &mut p.block);
        });
        // The next task on this thread starts a fresh escalation.
        WAITER.with(|w| {
            if let Some(w) = w.borrow_mut().as_mut() {
                w.reset();
            }
        });
        // Idle *before* announcing the exit: whoever that wakes (a joiner
        // about to spawn again) then finds this worker, and its job simply
        // waits in the mailbox until the bookkeeping below is done.
        let stopped = {
            let mut pool = locked(&inner.pools[node]);
            if !pool.stopped {
                pool.idle.push(Arc::clone(&me));
            }
            pool.stopped
        };
        rec.finished.store(true, Ordering::SeqCst);
        locked(&inner.tasks[node]).remove(&id.0);
        if rec.joined.load(Ordering::SeqCst) {
            rec.notify();
        }
        if let Err(payload) = outcome {
            if !payload.is::<RunPoisoned>() {
                locked(&inner.panic).get_or_insert(payload);
            }
            inner.begin_shutdown();
        }
        if !daemon {
            inner.release_live();
        }
        if stopped {
            return;
        }
        let mut mail = locked(&me.mail);
        job = loop {
            match std::mem::replace(&mut *mail, Mail::Empty) {
                Mail::Job(job) => break job,
                Mail::Stop => return,
                Mail::Empty => mail = me.cv.wait(mail).unwrap_or_else(|e| e.into_inner()),
            }
        };
    }
}

/// A handle to the wall-clock machine held by one task. Cheap to clone;
/// clones refer to the same task.
pub struct LocalFabric {
    inner: Arc<LfInner>,
    node: usize,
    task: TaskId,
    /// This task's record, cached so the hot park/unpark-token paths never
    /// touch the task table.
    rec: Arc<TaskRec>,
}

impl Clone for LocalFabric {
    fn clone(&self) -> Self {
        LocalFabric {
            inner: Arc::clone(&self.inner),
            node: self.node,
            task: self.task,
            rec: Arc::clone(&self.rec),
        }
    }
}

impl LocalFabric {
    /// Run `body` on `nodes` OS threads with the default configuration.
    pub fn run<G>(nodes: usize, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        LocalFabricBuilder::new(nodes).run(body)
    }

    /// Task records currently in the table: the live set, whatever the
    /// number of tasks the run has spawned so far. For the bounded-resource
    /// tests.
    #[doc(hidden)]
    pub fn debug_task_records(&self) -> usize {
        self.inner.tasks.iter().map(|s| locked(s).len()).sum()
    }

    /// Run `f` on the probe block this call counts into: the calling
    /// worker's own when it works for this handle's run and node — every
    /// ordinary call. A handle carried to another node's worker, or to a
    /// thread outside the run, counts into a scratch block folded into the
    /// handle's node at once, under that node's locks.
    ///
    /// `PROBE` stays borrowed while `f` runs, on both paths, so a user
    /// closure in `f` that calls back into the fabric panics with
    /// [`REENTRY`].
    fn with_block<R>(&self, f: impl FnOnce(&mut Block) -> R) -> R {
        PROBE.with(|p| {
            let mut p = p.try_borrow_mut().unwrap_or_else(|_| panic!("{REENTRY}"));
            match p.as_mut() {
                Some(p) if p.run == Arc::as_ptr(&self.inner) && p.node == self.node => {
                    f(&mut p.block)
                }
                _ => {
                    let mut scratch = Block::default();
                    let r = f(&mut scratch);
                    self.inner.merge(self.node, &mut scratch);
                    r
                }
            }
        })
    }

    /// Fold what this thread has counted into the node totals: the caller
    /// is about to stop running, to wake or start another task, or to read
    /// the totals.
    fn merge_block(&self) {
        self.with_block(|b| self.inner.merge(self.node, b));
    }

    /// Panic with [`REENTRY`] if a probe closure is running on this thread.
    /// For the blocking calls that reach a merge (which checks) only on some
    /// of their paths.
    fn check_reentry() {
        PROBE.with(|p| {
            if p.try_borrow_mut().is_err() {
                panic!("{REENTRY}");
            }
        })
    }

    /// `spawn_task` from this task, whose counts so far the child may read.
    fn spawn_from(&self, node: usize, daemon: bool, f: TaskFn) -> TaskId {
        self.merge_block();
        spawn_task(&self.inner, node, daemon, f)
    }

    /// Run `f` with this thread's wait-escalation state.
    fn with_waiter<R>(&self, f: impl FnOnce(&mut Waiter) -> R) -> R {
        WAITER.with(|w| {
            let mut w = w.borrow_mut();
            f(w.get_or_insert_with(|| Waiter::new(self.inner.wait)))
        })
    }

    /// The shared three-phase inbox wait behind `park_for_inbox` and
    /// `park_for_inbox_until`.
    ///
    /// Spin and yield phases poll the parker generation — bumped on every
    /// delivery and unpark targeting this node — rather than re-summing all
    /// link depths, so one spin iteration is one atomic load. The park
    /// phase does one bounded timed wait and then returns (a permitted
    /// spurious wakeup): callers loop on their own predicate, and the
    /// escalation state persists across calls so consecutive unproductive
    /// waits keep backing off while any productive wake resets the ladder.
    fn inbox_wait(&self, deadline: Option<Time>) {
        Self::check_reentry();
        let inner = &*self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            inner.check_poison();
        }
        let parker = &inner.parkers[self.node];
        let seen = parker.gen.load(Ordering::SeqCst);
        let productive = |seen: u64| {
            inner.inbox_len(self.node) > 0
                || parker.gen.load(Ordering::SeqCst) != seen
                || self.rec.take_token()
                || inner.shutting_down.load(Ordering::SeqCst)
        };
        self.with_waiter(|w| {
            // The busy path — frames already queued — ends here and pays
            // nothing for the flag below.
            if productive(seen) {
                w.reset();
                return;
            }
            // Nothing to do until a frame lands: the time the merge takes is
            // time this task would have spent spinning.
            self.merge_block();
            // Flag/flag with `unpark`, as on `TaskRec`: raised before the
            // pre-sleep check reads the token. An `unpark` that misses the
            // flag stored its token before that check; one that sees it
            // bumps the generation past `seen`, which `park_timeout`
            // re-checks under its lock. (The spin phase reads only the
            // generation, so a token landing in the window before the flag
            // went up is picked up a few hundred spins later, at the first
            // yield.)
            self.rec.inbox_waiting.store(true, Ordering::SeqCst);
            loop {
                if let Some(d) = deadline {
                    if self.now() >= d {
                        w.reset();
                        return;
                    }
                }
                match w.next_phase() {
                    WaitPhase::Spin => {
                        std::hint::spin_loop();
                        if parker.gen.load(Ordering::SeqCst) != seen
                            || inner.shutting_down.load(Ordering::SeqCst)
                        {
                            w.reset();
                            return;
                        }
                    }
                    WaitPhase::Yield => {
                        std::thread::yield_now();
                        if productive(seen) {
                            w.reset();
                            return;
                        }
                    }
                    WaitPhase::Park(ns) => {
                        let mut dur = ns;
                        if let Some(d) = deadline {
                            let now = self.now();
                            if now >= d {
                                w.reset();
                                return;
                            }
                            dur = dur.min(d - now);
                        }
                        // Final pre-sleep check against the generation we
                        // captured on entry; a delivery between it and the
                        // wait is caught by park_timeout's locked re-check.
                        if productive(seen) {
                            w.reset();
                            return;
                        }
                        parker.park_timeout(seen, Duration::from_nanos(dur));
                        if productive(seen) {
                            w.reset();
                        }
                        // One bounded wait per call: return (possibly
                        // spuriously) and let the caller re-check.
                        return;
                    }
                }
            }
        });
        // Relaxed: it publishes nothing, and an `unpark` that still reads
        // `true` only bumps the parker for no one.
        self.rec.inbox_waiting.store(false, Ordering::Relaxed);
    }
}

impl Fabric for LocalFabric {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.inner.nodes
    }

    fn task_id(&self) -> TaskId {
        self.task
    }

    fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    fn now(&self) -> Time {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn charge(&self, bucket: Bucket, ns: Time) {
        if ns == 0 {
            return;
        }
        self.with_block(|b| b.stats().bucket_ns[bucket.index()] += ns)
    }

    /// `f` sees the counts of the calling thread since its last merge, not
    /// the node's totals: add to them, do not read them.
    fn with_stats<R>(&self, f: impl FnOnce(&mut Stats) -> R) -> R {
        self.with_block(|b| f(b.stats()))
    }

    /// Holds what the caller did up to now, what every other task did before
    /// anything that reached the caller through the fabric (a frame, a wakeup,
    /// a spawn, a join — so everything before a barrier), and what each did
    /// up to its last wait.
    fn snapshot(&self) -> Snapshot {
        self.merge_block();
        let now = self.now();
        Snapshot {
            clocks: vec![now; self.inner.nodes],
            stats: self.inner.stats(),
            metrics: self.inner.registry(),
        }
    }

    // Task names are not kept: workers are named once (`lf-{node}-w{k}`)
    // and storing a borrowed `name` would cost an allocation per spawn.
    fn spawn<G>(&self, _name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_from(self.node, false, Box::new(f))
    }

    fn spawn_on<G>(&self, node: usize, _name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_from(node, false, Box::new(f))
    }

    fn spawn_daemon<G>(&self, _name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_from(self.node, true, Box::new(f))
    }

    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn park(&self) {
        Self::check_reentry();
        let inner = &*self.inner;
        let rec = &*self.rec;
        self.with_waiter(|w| loop {
            if rec.take_token() {
                w.reset();
                return;
            }
            if inner.shutting_down.load(Ordering::SeqCst) {
                // Strict parks are only legal while their waker is alive;
                // during teardown, waking spuriously beats deadlocking.
                inner.check_poison();
                return;
            }
            match w.next_phase() {
                WaitPhase::Spin => std::hint::spin_loop(),
                WaitPhase::Yield => std::thread::yield_now(),
                // Untimed: `unpark` and `begin_shutdown` both notify this
                // task's own condvar (handshake on `TaskRec`), so a parked
                // task costs nothing until one of them happens.
                WaitPhase::Park(_) => {
                    self.merge_block();
                    rec.sleeping.store(true, Ordering::SeqCst);
                    let mut g = locked(&rec.lock);
                    while !rec.unparked.load(Ordering::SeqCst)
                        && !inner.shutting_down.load(Ordering::SeqCst)
                    {
                        g = rec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                    drop(g);
                    rec.sleeping.store(false, Ordering::SeqCst);
                }
            }
        })
    }

    fn unpark(&self, t: TaskId) {
        // The woken task may go on to tell others what this one did.
        self.merge_block();
        if t == self.task {
            self.inner.unpark(&self.rec);
        } else if let Some(rec) = self.inner.task(t) {
            self.inner.unpark(&rec);
        }
        // Otherwise `t` has exited: nobody is left to wake, and no token is
        // left behind for whichever task runs on that worker next.
    }

    fn park_for_inbox(&self) {
        self.inbox_wait(None);
    }

    fn park_for_inbox_until(&self, deadline: Time) {
        self.inbox_wait(Some(deadline));
    }

    fn sleep(&self, ns: Time) {
        self.merge_block();
        std::thread::sleep(Duration::from_nanos(ns));
    }

    fn join(&self, t: TaskId) {
        self.merge_block();
        let Some(rec) = self.inner.task(t) else {
            return;
        };
        rec.joined.store(true, Ordering::SeqCst);
        let mut g = locked(&rec.lock);
        while !rec.finished.load(Ordering::SeqCst) {
            g = rec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn is_finished(&self, t: TaskId) -> bool {
        self.inner
            .task(t)
            .is_none_or(|rec| rec.finished.load(Ordering::SeqCst))
    }

    fn shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    fn poll_point(&self) {
        // Delivery is immediate on this fabric; nothing to pull forward.
    }

    fn wall_clock(&self) -> bool {
        true
    }

    fn send_msg(&self, dst: usize, wire_bytes: usize, _delay: Time, payload: Payload) {
        assert!(dst < self.inner.nodes, "send to nonexistent node {dst}");
        // The receive is counted at `try_recv`, by the receiver. The merge
        // comes before the push: once the frame can be seen, so can
        // everything this task counted before sending it.
        self.with_block(|b| {
            let s = b.stats();
            s.msgs_sent += 1;
            s.bytes_sent += wire_bytes as u64;
            s.msg_size_hist[size_bucket(wire_bytes)] += 1;
            self.inner.merge(self.node, b);
        });
        self.inner.ring(self.node, dst).push(Msg {
            src: self.node,
            wire_bytes,
            payload,
        });
        self.inner.parkers[dst].bump();
    }

    fn try_recv(&self) -> Option<Msg> {
        let n = self.inner.nodes;
        let start = self.inner.rotate[self.node].fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let src = (start + i) % n;
            if let Some(m) = self.inner.ring(src, self.node).pop() {
                self.with_block(|b| b.stats().msgs_received += 1);
                return Some(m);
            }
        }
        None
    }

    fn inbox_len(&self) -> usize {
        self.inner.inbox_len(self.node)
    }

    fn node_data<T, G>(&self, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        let id = TypeId::of::<T>();
        let found = self.with_block(|b| {
            if let Some((_, hit)) = b.data.iter().find(|(t, _)| *t == id) {
                return Arc::clone(hit);
            }
            // `init` runs at most once per node, so under the registry lock.
            let fresh = Arc::clone(
                locked(&self.inner.node_data[self.node])
                    .entry(id)
                    .or_insert_with(|| Arc::new(init())),
            );
            b.data.push((id, Arc::clone(&fresh)));
            fresh
        });
        Arc::downcast::<T>(found).expect("node_data type confusion")
    }

    fn metrics_enabled(&self) -> bool {
        self.inner.metrics.is_some()
    }

    fn metric_observe(&self, name: &'static str, v: u64) {
        if self.inner.metrics.is_some() {
            self.with_block(|b| b.hist(name).record(v))
        }
    }

    fn metric_counter_add(&self, name: &'static str, delta: u64) {
        if self.inner.metrics.is_some() {
            self.with_block(|b| *b.counter(name) += delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            const N: u64 = 5_000; // > ring capacity: exercises the overflow
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
    fn unpark_before_park_is_not_lost() {
        LocalFabric::run(1, |fab| {
            let me = fab.task_id();
            let f2 = fab.clone();
            let t = fab.spawn("waker", move |c| {
                c.unpark(me);
                let _ = f2; // keep a clone alive across the spawn
            });
            fab.join(t);
            fab.park(); // token already consumed-able: must not hang
        });
    }

    #[test]
    fn spawn_join_and_charge_ledger() {
        let r = LocalFabric::run(1, |fab| {
            let t = fab.spawn("w", |c| {
                c.charge(Bucket::Cpu, 1_000);
                c.with_stats(|s| s.polls += 1);
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
            std::thread::sleep(Duration::from_micros(50));
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
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                LocalFabric::run(nodes, body)
            }));
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

    #[test]
    fn a_spawned_task_panic_unwinds_token_parkers_and_joiners() {
        let payload = run_with_timeout(1, |fab| {
            // Nobody ever unparks it: only the poisoned run gets it out.
            let parker = fab.spawn("parker", |c| c.park());
            let bomb = fab.spawn("bomb", move |c| {
                let rec = c.inner.task(parker).expect("parker cannot exit yet");
                while !rec.sleeping.load(Ordering::SeqCst) {
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

    /// The twin of the simulator's `kernel_reentry_panics_on_every_backend`:
    /// calling back into the fabric from a `with_stats` closure or a
    /// `node_data` init fails the run with the rule, on a worker's own block
    /// and through a handle driven from another node's worker alike. (On one
    /// `std::sync::Mutex` per node each of these used to hang.)
    #[test]
    fn reentry_from_a_probe_closure_panics_with_the_rule() {
        struct Outer;
        struct Inner;
        type Reenter = fn(&LocalFabric);
        let cases: [(&str, Reenter); 8] = [
            ("charge in with_stats", |c| {
                c.with_stats(|_| c.charge(Bucket::Cpu, 1))
            }),
            ("with_stats in with_stats", |c| {
                c.with_stats(|_| c.with_stats(|s| s.polls += 1))
            }),
            ("park in with_stats", |c| c.with_stats(|_| c.park())),
            // Would return at once, never reaching the merge in its park phase.
            ("park on a set token in with_stats", |c| {
                c.unpark(c.task_id());
                c.with_stats(|_| c.park())
            }),
            ("park_for_inbox in with_stats", |c| {
                c.send_msg(c.node(), 8, 1, Payload::any(0u64));
                c.with_stats(|_| c.park_for_inbox())
            }),
            ("unpark in with_stats", |c| {
                c.with_stats(|_| c.unpark(c.task_id()))
            }),
            ("join in with_stats", |c| {
                let done = c.spawn("done", |_| {});
                c.join(done);
                c.with_stats(|_| c.join(done))
            }),
            ("node_data in a node_data init", |c| {
                c.node_data(|| {
                    c.node_data(|| Inner);
                    Outer
                });
            }),
        ];
        for (what, reenter) in cases {
            let own = run_with_timeout(1, move |fab| reenter(&fab))
                .expect_err("re-entry on the worker's own block must fail the run");
            let msg = panic_message(own);
            assert!(
                msg.contains("must not call back into the fabric"),
                "{what}: {msg}"
            );

            let lent = Arc::new(Mutex::new(None));
            let foreign = run_with_timeout(2, move |fab| {
                if fab.node() == 1 {
                    *locked(&lent) = Some(fab.clone());
                    return;
                }
                let theirs = loop {
                    if let Some(h) = locked(&lent).take() {
                        break h;
                    }
                    fab.yield_now();
                };
                reenter(&theirs);
            })
            .expect_err("re-entry through another node's handle must fail the run");
            let msg = panic_message(foreign);
            assert!(
                msg.contains("must not call back into the fabric"),
                "{what}: {msg}"
            );
        }
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
            fab.with_stats(|s| s.polls += 1);
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
