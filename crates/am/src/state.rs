//! Per-node Active-Message endpoint state: the handler table and profile.

use crate::profile::NetProfile;
use crate::AmMsg;
use mpmd_fabric::Fabric;
use mpmd_sim::{NodeCell, TaskId};
use std::sync::{Arc, OnceLock};

/// Identifier of a registered handler. Each runtime owns a disjoint id range
/// (by convention: AM internals 0–15, Split-C 16–63, CC++ 64+), and every
/// id is below [`HANDLER_ID_LIMIT`].
pub type HandlerId = u32;

/// Every handler id is below this bound: a node's handler table is an array
/// with one slot per id.
pub const HANDLER_ID_LIMIT: HandlerId = 256;

/// A registered active-message handler. Handlers execute on the receiving
/// node, inside whichever task performed the poll; they may send messages
/// (e.g. replies), register handlers and spawn threads, but must not block.
pub type Handler<F> = Arc<dyn Fn(&F, AmMsg) + Send + Sync>;

/// Endpoint state, one per node, stored in the fabric's node-data registry.
pub(crate) struct AmState<F: Fabric> {
    /// Set once by [`init`]; every send and every productive poll reads it.
    pub(crate) profile: OnceLock<NetProfile>,
    /// Slot `id` is set once, by [`register`]; a dispatch borrows it with
    /// no lock held, so a handler may register another id.
    pub(crate) handlers: [OnceLock<Handler<F>>; HANDLER_ID_LIMIT as usize],
    /// Tasks currently inside `poll`, guarding against *recursive* polling
    /// (a handler's reply triggering poll-on-send while already inside a
    /// poll). Per task, not per node: a different task polling while this
    /// one is suspended at its poll point is legal and necessary — blocking
    /// it would let a spin-waiting task busy-loop forever while the polling
    /// thread holds the node-wide flag. A handful of tasks at most, so a
    /// scan, not a hash; only the node's own tasks touch it, so no lock.
    pub(crate) in_poll: NodeCell<Vec<TaskId>>,
    /// Barrier and all-reduce bookkeeping (see `collective.rs`).
    pub(crate) collective: NodeCell<crate::collective::Collective>,
    /// Reliable-delivery protocol state (used only with a fault model).
    pub(crate) rel: NodeCell<crate::reliable::RelState>,
    /// Per-destination aggregation buffers, set once iff the runtime enabled
    /// message coalescing on this node. A node that never coalesces pays one
    /// load per send and per poll.
    pub(crate) coalesce: OnceLock<NodeCell<crate::coalesce::CoalesceState>>,
    /// The pump daemon's task, spawned by [`init`] under a fault model.
    /// Sends nudge it awake so it re-parks against the new packet's
    /// retransmit deadline — otherwise a pump that parked with an empty
    /// retransmit buffer would sleep through the drop of a packet sent
    /// afterwards.
    pub(crate) pump: OnceLock<TaskId>,
}

impl<F: Fabric> AmState<F> {
    fn new() -> Self {
        AmState {
            profile: OnceLock::new(),
            handlers: std::array::from_fn(|_| OnceLock::new()),
            in_poll: NodeCell::new(Vec::new()),
            collective: NodeCell::default(),
            rel: NodeCell::default(),
            coalesce: OnceLock::new(),
            pump: OnceLock::new(),
        }
    }

    pub(crate) fn get(ctx: &F) -> &AmState<F> {
        ctx.node_data(AmState::new)
    }

    pub(crate) fn profile(&self) -> &NetProfile {
        self.profile
            .get()
            .expect("am::init was not called on this node")
    }
}

/// Initialize this node's endpoint with a cost profile. Must be called once
/// per node before any communication; calling again with a different profile
/// panics (mixed profiles on one node would make measurements meaningless).
pub fn init<F: Fabric>(ctx: &F, profile: NetProfile) {
    let st = AmState::get(ctx);
    assert_eq!(
        *st.profile.get_or_init(|| profile.clone()),
        profile,
        "am::init called twice with different profiles"
    );
    // A fault model switches the layer into reliable-delivery mode; each
    // node gets one pump daemon driving retransmits/acks while application
    // tasks compute or block.
    if ctx.cost().faults.is_some() {
        st.pump
            .get_or_init(|| ctx.spawn_daemon("am-pump", crate::reliable::pump_main::<F>));
    }
}

/// The profile this node was initialized with.
pub fn profile<F: Fabric>(ctx: &F) -> NetProfile {
    AmState::get(ctx).profile().clone()
}

/// Register `handler` under `id` on this node. Panics if the id is taken or
/// not below [`HANDLER_ID_LIMIT`].
pub fn register<F: Fabric>(
    ctx: &F,
    id: HandlerId,
    handler: impl Fn(&F, AmMsg) + Send + Sync + 'static,
) {
    assert!(
        id < HANDLER_ID_LIMIT,
        "AM handler id {id} is out of range: ids are below HANDLER_ID_LIMIT ({HANDLER_ID_LIMIT})"
    );
    let fresh = AmState::get(ctx).handlers[id as usize]
        .set(Arc::new(handler))
        .is_ok();
    assert!(fresh, "duplicate AM handler id {id}");
}

/// Whether a handler id is registered (used by tests and diagnostics).
pub fn is_registered<F: Fabric>(ctx: &F, id: HandlerId) -> bool {
    AmState::get(ctx)
        .handlers
        .get(id as usize)
        .is_some_and(|h| h.get().is_some())
}

pub(crate) fn lookup<F: Fabric>(st: &AmState<F>, id: HandlerId) -> &Handler<F> {
    st.handlers
        .get(id as usize)
        .and_then(OnceLock::get)
        .unwrap_or_else(|| panic!("no AM handler registered for id {id}"))
}

/// Poll-guard RAII: marks the *task* as inside a poll for its lifetime.
pub(crate) struct PollGuard<'a, F: Fabric> {
    st: &'a AmState<F>,
    ctx: &'a F,
}

impl<'a, F: Fabric> PollGuard<'a, F> {
    /// Returns `None` if this task is already polling (recursive poll via
    /// poll-on-send suppressed). Other tasks may poll concurrently — inbox
    /// draining is atomic per message.
    pub(crate) fn enter(st: &'a AmState<F>, ctx: &'a F) -> Option<Self> {
        let task = ctx.task_id();
        let fresh = st.in_poll.with(ctx, |polling| {
            let fresh = !polling.contains(&task);
            if fresh {
                polling.push(task);
            }
            fresh
        });
        fresh.then(|| PollGuard { st, ctx })
    }
}

impl<F: Fabric> Drop for PollGuard<'_, F> {
    fn drop(&mut self) {
        let task = self.ctx.task_id();
        self.st.in_poll.with(self.ctx, |p| p.retain(|t| *t != task));
    }
}
