//! [`NodeCell`]: state one node's tasks share, with no host lock.

use crate::fabric::{Fabric, ACROSS_NODES};
use crate::probe::Probe;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What [`NodeCell::owner`] holds before the first touch.
const UNOWNED: usize = 0;

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
/// reaches it. Every touch
/// goes through [`NodeCell::with`], which borrows the caller's node
/// [`Probe`] for an instant — on both fabrics that panics unless the calling
/// thread holds that node's baton — and then compares the probe's address,
/// which names one node of one live run, with the owner the cell recorded:
/// one compare-exchange on the first touch, a relaxed load and compare on
/// every later one. A touch from another node, or from a node of another
/// live run, panics with the node-local rule ([`ACROSS_NODES`]).
pub struct NodeCell<T> {
    /// The address of the owning node's probe, or [`UNOWNED`].
    owner: AtomicUsize,
    /// Its flag catches a `with` closure that touches the cell again.
    value: RefCell<T>,
}

// SAFETY: `value` is reached only through `with` (or through `&mut self`).
// `with` first borrows the caller's node probe, which panics unless the
// calling thread holds that node's baton in that run, and then checks that
// this node of this run is the cell's owner. A node's baton is held by one
// thread at a time and handing it on orders memory (release/acquire, on
// both fabrics and both backends), so the `RefCell`, flag included, is never
// touched from two threads at once and each holder sees what the previous
// one wrote. `T: Send` because successive holders may be different threads.
unsafe impl<T: Send> Sync for NodeCell<T> {}

impl<T> NodeCell<T> {
    /// A cell no node owns yet.
    pub const fn new(value: T) -> Self {
        NodeCell {
            owner: AtomicUsize::new(UNOWNED),
            value: RefCell::new(value),
        }
    }

    /// Run `f` on the value, as a task of `ctx`'s node. Panics off the
    /// node's baton, on a node other than the owner, and with [`REENTERED`]
    /// if `f` touches this cell again.
    #[inline]
    pub fn with<F: Fabric, R>(&self, ctx: &F, f: impl FnOnce(&mut T) -> R) -> R {
        // The key is the probe's address (`from_ref::<Probe>` derefs the
        // guard), and the probe's borrow ends with this statement.
        let key = std::ptr::from_ref::<Probe>(&ctx.probe()) as usize;
        if self.owner.load(Ordering::Relaxed) != key {
            self.claim(key, ctx.node());
        }
        let mut value = self
            .value
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("{REENTERED}"));
        f(&mut value)
    }

    /// First touch: become the owner, or find that another node is.
    #[cold]
    fn claim(&self, key: usize, node: usize) {
        let claimed =
            self.owner
                .compare_exchange(UNOWNED, key, Ordering::Relaxed, Ordering::Relaxed);
        if let Err(owner) = claimed {
            assert!(
                owner == key,
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
