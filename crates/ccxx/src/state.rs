//! Per-node CC++ runtime state.

use crate::config::CcxxConfig;
use crate::pobj::ObjRec;
use crate::rmi::{Far, RmiArgs, RmiRet};
use mpmd_am::{CallRecords, RecordCell, RegionTable, Reply};
use mpmd_fabric::Fabric;
use mpmd_sim::{NodeCell, TaskId};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

/// A registered method stub: executes the method body and produces the
/// reply. Stubs are what the CC++ front-end generates from processor-object
/// method declarations ("method invocation stubs with argument marshalling
/// and unmarshalling code and communication calls into the runtime system
/// are generated automatically").
pub type StubFn<F> = Arc<dyn Fn(&F, RmiArgs) -> RmiRet + Send + Sync>;

/// A CC++ global pointer into a processor object's data. Unlike Split-C's
/// transparent `(node, address)` pairs, CC++ global pointers are opaque to
/// the program; here they resolve to a registered region on the owning node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CxPtr {
    pub node: usize,
    pub region: u32,
    pub offset: usize,
}

impl CxPtr {
    /// Element-offset arithmetic (the front-end handles this on the opaque
    /// representation).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, elems: usize) -> CxPtr {
        CxPtr {
            offset: self.offset + elems,
            ..self
        }
    }
}

/// The per-node method stub cache: for each destination node, the resolved
/// remote entry points of the (program, method name hash) pairs called
/// there, in a short list that a lookup scans. A node calls a handful of
/// methods (and processor objects) on each other node, so the scan is a few
/// compares and no hashing.
#[derive(Default)]
pub(crate) struct StubCache(Vec<Vec<StubEntry>>);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StubEntry {
    hash: u64,
    program: u32,
    addr: u64,
}

impl StubCache {
    /// The cached stub address of `(program, hash)` at `dst`.
    pub(crate) fn get(&self, dst: usize, program: u32, hash: u64) -> Option<u64> {
        let entries = self.0.get(dst)?;
        let e = entries
            .iter()
            .find(|e| e.hash == hash && e.program == program)?;
        Some(e.addr)
    }

    /// Cache `addr` as the stub of `(program, hash)` at `dst`.
    pub(crate) fn insert(&mut self, dst: usize, program: u32, hash: u64, addr: u64) {
        if self.0.len() <= dst {
            self.0.resize_with(dst + 1, Vec::new);
        }
        let entries = &mut self.0[dst];
        match entries
            .iter_mut()
            .find(|e| e.hash == hash && e.program == program)
        {
            Some(e) => e.addr = addr,
            None => entries.push(StubEntry {
                hash,
                program,
                addr,
            }),
        }
    }
}

/// Which callers have a persistent R-buffer for which local stub: one row
/// per calling node, one flag per stub address (addresses are dense, see
/// [`CcxxState::stubs`]).
#[derive(Default)]
pub(crate) struct RBufs(Vec<Vec<bool>>);

impl RBufs {
    pub(crate) fn has(&self, src: usize, addr: u64) -> bool {
        let row = self.0.get(src);
        row.and_then(|r| r.get(addr as usize))
            .copied()
            .unwrap_or(false)
    }

    pub(crate) fn insert(&mut self, src: usize, addr: u64) {
        if self.0.len() <= src {
            self.0.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.0[src];
        if row.len() <= addr as usize {
            row.resize(addr as usize + 1, false);
        }
        row[addr as usize] = true;
    }
}

/// A registered stub with its metadata.
pub(crate) struct StubRec<F> {
    pub(crate) f: StubFn<F>,
    /// Whether the method may block (OAM hint): optimistic invocations of
    /// non-blocking methods run inline; blocking ones are aborted to a
    /// thread.
    pub(crate) may_block: bool,
}

pub(crate) struct CcxxState<F: Fabric> {
    /// Set once by `ccxx::init`; read on every RMI.
    config_slot: OnceLock<CcxxConfig>,
    /// Local stubs, indexed by entry-point address.
    pub(crate) stubs: NodeCell<Vec<StubRec<F>>>,
    /// Local (program id, method name) -> entry-point address. "This
    /// technique can be easily extended to a scenario where multiple
    /// programs execute on the same processing node by introducing the
    /// program ID as another index to the hash table."
    pub(crate) by_name: NodeCell<HashMap<(u32, String), u64>>,
    /// "Each processing node maintains a table of stub addresses which is
    /// indexed by processor number and method name hash value" — plus the
    /// program id, per the paper's multi-program extension. Guarded by a
    /// *simulated* mutex: the runtime is thread-safe and the paper charges
    /// these lock operations (they dominate the thread-sync component).
    pub(crate) stub_cache: mpmd_threads::Mutex<StubCache>,
    /// Persistent R-buffers allocated on this node, by (caller, stub).
    pub(crate) rbufs: NodeCell<RBufs>,
    /// Send-buffer management lock (simulated; charged).
    pub(crate) sbuf_lock: mpmd_threads::Mutex<()>,
    /// Incoming-dispatch lock (simulated; charged).
    pub(crate) dispatch_lock: mpmd_threads::Mutex<()>,
    /// Processor-object lock for atomic methods (simulated; charged).
    pub(crate) method_lock: mpmd_threads::Mutex<()>,
    /// Call records not in use (see [`crate::rmi`]).
    pub(crate) call_records: CallRecords<Far>,
    /// Global-pointer data regions, and the `__addf` / `__add3f`
    /// accumulates staged into them until the next barrier (per-caller order
    /// is preserved: atomic-add RMIs are synchronous). Host-side state:
    /// staging and committing are not modeled costs.
    pub(crate) memory: RegionTable,
    /// Tasks currently spin-polling; the polling thread defers to them.
    pub(crate) spinners: NodeCell<usize>,
    /// The polling thread, set once by `ccxx::init`.
    pub(crate) poller: OnceLock<TaskId>,
    pub(crate) poller_stop: AtomicBool,
    /// Processor objects on this node, by id (see [`crate::pobj`]).
    pub(crate) objects: NodeCell<HashMap<u64, ObjRec>>,
    /// The id the next processor object created here gets.
    pub(crate) next_obj: NodeCell<u64>,
}

impl<F: Fabric> CcxxState<F> {
    fn new() -> Self {
        CcxxState {
            config_slot: OnceLock::new(),
            stubs: NodeCell::default(),
            by_name: NodeCell::default(),
            stub_cache: mpmd_threads::Mutex::new(StubCache::default()),
            rbufs: NodeCell::default(),
            sbuf_lock: mpmd_threads::Mutex::new(()),
            dispatch_lock: mpmd_threads::Mutex::new(()),
            method_lock: mpmd_threads::Mutex::new(()),
            call_records: CallRecords::default(),
            memory: RegionTable::default(),
            spinners: NodeCell::default(),
            poller: OnceLock::new(),
            poller_stop: AtomicBool::new(false),
            objects: NodeCell::default(),
            next_obj: NodeCell::new(1),
        }
    }

    pub(crate) fn get(ctx: &F) -> &CcxxState<F> {
        ctx.node_data(CcxxState::new)
    }

    /// Wait for a call's reply and recycle its record: block, or spin as a
    /// registered spinner (see [`crate::rmi`]).
    pub(crate) fn await_reply(&self, ctx: &F, cell: Arc<RecordCell<Far>>) -> Reply {
        self.call_records
            .wait(ctx, cell, |ready| crate::rmi::spin_wait(ctx, ready))
    }

    pub(crate) fn set_config(&self, cfg: CcxxConfig) {
        if let Err(cfg) = self.config_slot.set(cfg) {
            assert_eq!(
                *self.cfg(),
                cfg,
                "ccxx::init called twice with different configs"
            );
        }
    }

    pub(crate) fn cfg(&self) -> &CcxxConfig {
        self.config_slot
            .get()
            .expect("ccxx::init was not called on this node")
    }
}

/// Stable 64-bit FNV-1a hash of a method name (the "method name hash value"
/// indexing the stub table).
pub(crate) fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_hash_is_stable_and_distinguishes() {
        assert_eq!(name_hash("foo"), name_hash("foo"));
        assert_ne!(name_hash("foo"), name_hash("bar"));
        assert_ne!(name_hash(""), name_hash("a"));
    }

    #[test]
    fn the_stub_cache_keys_on_destination_program_and_hash() {
        let mut cache = StubCache::default();
        assert_eq!(cache.get(3, 0, 42), None);
        cache.insert(3, 0, 42, 7);
        cache.insert(3, 1, 42, 8);
        cache.insert(0, 0, 42, 9);
        assert_eq!(cache.get(3, 0, 42), Some(7));
        assert_eq!(cache.get(3, 1, 42), Some(8));
        assert_eq!(cache.get(0, 0, 42), Some(9));
        assert_eq!(cache.get(1, 0, 42), None);
        assert_eq!(cache.get(3, 0, 43), None);
        cache.insert(3, 0, 42, 10);
        assert_eq!(cache.get(3, 0, 42), Some(10), "a re-resolution replaces");
        assert_eq!(cache.0[3].len(), 2);
    }

    #[test]
    fn r_buffers_are_one_flag_per_caller_and_stub() {
        let mut r = RBufs::default();
        assert!(!r.has(2, 5));
        r.insert(2, 5);
        assert!(r.has(2, 5));
        assert!(!r.has(2, 4) && !r.has(1, 5) && !r.has(2, 6) && !r.has(9, 0));
    }

    #[test]
    fn cxptr_arithmetic() {
        let p = CxPtr {
            node: 2,
            region: 5,
            offset: 10,
        };
        let q = p.add(7);
        assert_eq!(q.offset, 17);
        assert_eq!(q.node, 2);
        assert_eq!(q.region, 5);
    }
}
