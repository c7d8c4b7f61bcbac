//! [`NodeCell`]: state one node's tasks share, with no host lock.

use crate::baton::NodeKey;
use crate::fabric::{Fabric, ACROSS_NODES, NOT_ITS_NODE};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What [`NodeCell::owner`] holds before the first touch: no node's key.
const UNOWNED: u64 = 0;

/// What [`NodeCell::with`] panics with when its closure reaches the same
/// cell again.
pub const REENTERED: &str = "a node cell's closure touched the same cell again";

/// A value that belongs to the node, in one run, that first touches it.
///
/// Every node-local table of the runtime crates lives in one of these: the
/// threads package's locks, the AM layer's poll set, collective, reliable
/// and coalescing state, both language runtimes' regions, and the Split-C
/// and CC++ tables. A node's tasks run one at a time on both fabrics, so
/// their state needs no host lock, only a guarantee that nothing else
/// reaches it. Every touch goes through [`NodeCell::with`], which compares
/// the node its baton says the caller runs as ([`crate::baton`]) with the
/// owner the cell recorded: one compare-exchange on the first touch, a load
/// and compare on every later one.
pub struct NodeCell<T> {
    /// The owning node's key, or [`UNOWNED`].
    owner: AtomicU64,
    /// Its flag catches a `with` closure that touches the cell again.
    value: RefCell<T>,
}

// SAFETY: `value` is reached only through `with` (or through `&mut self`),
// and `with` first checks that the context calling it runs as the cell's
// owner: a task of one node of one live run, as its baton recorded when the
// context received it. A node's tasks hold one baton, which one thread at a
// time holds, and handing it on orders memory (release/acquire, on both
// fabrics and both backends), so the `RefCell`, flag included, is never
// touched from two threads at once and each holder sees what the previous
// one wrote. `T: Send` because successive holders may be different threads.
unsafe impl<T: Send> Sync for NodeCell<T> {}

impl<T> NodeCell<T> {
    /// A cell no node owns yet.
    pub const fn new(value: T) -> Self {
        NodeCell {
            owner: AtomicU64::new(UNOWNED),
            value: RefCell::new(value),
        }
    }

    /// Run `f` on the value, as a task of `ctx`'s node. Panics with
    /// [`NOT_ITS_NODE`] unless a task of that node calls, with
    /// [`ACROSS_NODES`] on a node other than the owner, and with
    /// [`REENTERED`] if `f` touches this cell again.
    #[inline]
    pub fn with<F: Fabric, R>(&self, ctx: &F, f: impl FnOnce(&mut T) -> R) -> R {
        let here = NodeKey::here();
        if self.owner.load(Ordering::Relaxed) != here.0 || !here.is(ctx.node()) {
            self.claim(here, ctx.node());
        }
        let mut value = self
            .value
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("{REENTERED}"));
        f(&mut value)
    }

    /// First touch: become the owner, or find that another node is.
    #[cold]
    fn claim(&self, here: NodeKey, node: usize) {
        assert!(here.is(node), "{NOT_ITS_NODE}");
        let claimed =
            self.owner
                .compare_exchange(UNOWNED, here.0, Ordering::Relaxed, Ordering::Relaxed);
        if let Err(owner) = claimed {
            assert!(
                owner == here.0,
                "a touch from node {node} of another node's state {ACROSS_NODES}"
            );
        }
    }

    /// The value through exclusive access: no check needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: Default> Default for NodeCell<T> {
    fn default() -> Self {
        NodeCell::new(T::default())
    }
}
