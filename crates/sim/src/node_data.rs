//! The store behind [`Fabric::node_data`](crate::Fabric::node_data).

use std::any::{type_name, Any, TypeId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// One node's singletons, one per type, in slots filled in first-use order
/// and never emptied: each lives as long as the store, which a run keeps for
/// each node beside the drivers' state, for both fabrics alike. A lookup
/// scans the filled slots, with no lock and no reference count.
#[derive(Default)]
pub struct NodeData {
    slots: [OnceLock<(TypeId, Box<dyn Any + Send + Sync>)>; NodeData::SLOTS],
    /// Types whose `init` is running: a lookup of one is a re-entry.
    initializing: Mutex<Vec<TypeId>>,
}

impl NodeData {
    /// The most types one node may hold.
    pub const SLOTS: usize = 8;

    /// This node's `T`, made by `init` on first use. `init` runs with nothing
    /// borrowed and before a slot is claimed, so it may fetch another type;
    /// fetching `T` itself panics, naming `T`, and so does a type past
    /// [`NodeData::SLOTS`].
    pub fn get_or_init<T: Send + Sync + 'static>(&self, init: impl FnOnce() -> T) -> &T {
        let id = TypeId::of::<T>();
        let mut filled = self.slots.iter().map_while(OnceLock::get);
        let mut made = match filled.find(|e| e.0 == id) {
            Some((_, v)) => return Self::unkey(&**v),
            None => Some((id, self.make(id, init))),
        };
        // The first empty slot, past any that `init` filled with other types.
        for slot in &self.slots {
            let (t, v) = slot.get_or_init(|| made.take().expect("stored once"));
            if *t == id {
                return Self::unkey(&**v);
            }
        }
        panic!(
            "a node holds at most NodeData::SLOTS = {} types",
            Self::SLOTS
        )
    }

    /// The value of a slot keyed by `TypeId::of::<T>()`, without asking the
    /// box for its type a second time.
    #[inline]
    fn unkey<T: 'static>(v: &(dyn Any + Send + Sync)) -> &T {
        // SAFETY: a slot's key is the `TypeId` of the value `make` boxed
        // beside it (`(id, self.make(id, init))` with `id = TypeId::of::<T>()`
        // and `init: FnOnce() -> T`), and the caller matched that key to
        // `TypeId::of::<T>()`: the box holds a `T`.
        unsafe { &*(v as *const (dyn Any + Send + Sync) as *const T) }
    }

    /// Run `init` for the type `id`, unless it is running already.
    fn make<T>(&self, id: TypeId, init: impl FnOnce() -> T) -> Box<dyn Any + Send + Sync>
    where
        T: Send + Sync + 'static,
    {
        // Never held across a panic: the assert comes after letting go.
        let running = || self.initializing.lock().expect("not poisoned");
        let reentered = running().contains(&id);
        assert!(
            !reentered,
            "node_data::<{}> re-entered from its own init",
            type_name::<T>()
        );
        running().push(id);
        let made = catch_unwind(AssertUnwindSafe(init));
        running().retain(|t| *t != id);
        Box::new(made.unwrap_or_else(|p| resume_unwind(p)))
    }
}
