//! One node's task table, the same on both fabrics (the simulator keeps one
//! per node in its kernel, `LocalFabric` in its scheduler): the node's live
//! task records, its FIFO run queue, its inbox waiters and the task holding
//! its baton, with one body for each node-local scheduling rule. Every wake
//! appends to the run queue, so what a rule woke is the queue's new tail. A
//! fabric adds its clock, timers and idling (DESIGN.md §4a). A table is
//! touched only by the context that holds its node's baton.

use crate::fabric::ACROSS_NODES;
use crate::task::{TaskCell, TaskId};
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;

/// What a live task is doing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// In the run queue.
    Ready,
    /// Holding its node's baton.
    Running,
    /// In `park` or `join`: ended by `unpark`, or by its join target's exit
    /// (a joiner that an `unpark` woke re-checks and parks again).
    Parked,
    /// In `park_for_inbox*`: ended by a delivery, an `unpark` or its timer.
    InboxWait,
    /// In `sleep`: ended by its timer alone.
    Sleeping,
}

impl TaskState {
    fn waits(self) -> bool {
        matches!(self, Self::Parked | Self::InboxWait | Self::Sleeping)
    }
}

/// One live task: in its node's table from spawn to exit.
struct TaskRec {
    id: TaskId,
    state: TaskState,
    cell: Arc<TaskCell>,
    /// For the dump; empty where the fabric keeps names only in its trace.
    name: String,
    /// Excluded from what holds the run open.
    daemon: bool,
    /// Tasks parked in `join` on this one, each listed once.
    joiners: Vec<TaskId>,
    /// Bumped on every wake: a timer armed at an older generation is stale.
    gen: u64,
}

/// One node's tasks and the rules that move them. See the module docs.
pub struct NodeTasks {
    node: usize,
    nodes: usize,
    /// Spawns so far: ids are `seq * nodes + node`, so an id names its node.
    next_seq: usize,
    /// The live records in id order: ids only grow, so a spawn appends and a
    /// lookup is a binary search over the live set. An exit drops its record.
    recs: Vec<TaskRec>,
    /// The run queue, first in first out.
    ready: VecDeque<TaskId>,
    /// The task that holds the node's baton, if one does.
    current: Option<TaskId>,
    /// Inbox waiters in the order of their first wait. A task is listed
    /// once: one that a timer or an `unpark` woke keeps its place, and an
    /// entry whose task no longer waits on the inbox is skipped and dropped
    /// at the next drain.
    inbox_waiters: Vec<TaskId>,
    /// Tasks in `InboxWait`, every one of them listed: whether anyone waits
    /// on the inbox, exactly.
    inbox_waiting: usize,
    /// Live daemons.
    daemons: usize,
}

impl NodeTasks {
    /// The empty table of node `node` of `nodes`.
    pub fn new(node: usize, nodes: usize) -> Self {
        NodeTasks {
            node,
            nodes,
            next_seq: 0,
            recs: Vec::new(),
            ready: VecDeque::new(),
            current: None,
            inbox_waiters: Vec::new(),
            inbox_waiting: 0,
            daemons: 0,
        }
    }

    /// Give a new task, run by `cell`, its id and a record, and queue it.
    pub fn spawn(&mut self, cell: Arc<TaskCell>, name: String, daemon: bool) -> TaskId {
        let id = u32::try_from(self.next_seq * self.nodes + self.node);
        let id = TaskId(id.expect("task ids exhausted"));
        self.next_seq += 1;
        self.recs.push(TaskRec {
            id,
            state: TaskState::Ready,
            cell,
            name,
            daemon,
            joiners: Vec::new(),
            gen: 0,
        });
        self.daemons += daemon as usize;
        self.ready.push_back(id);
        id
    }

    /// Panic unless `t` names a task this node issued: `op`, a call of a
    /// task of this node, may reach no other.
    fn check(&self, t: TaskId, op: &str) {
        let (node, seq) = (t.idx() % self.nodes, t.idx() / self.nodes);
        assert!(node == self.node, "`{op}` of {t:?} {ACROSS_NODES}");
        assert!(
            seq < self.next_seq,
            "`{op}` of {t:?}: no such task was spawned"
        );
    }

    fn find(&self, t: TaskId) -> Option<usize> {
        self.recs.binary_search_by_key(&t, |r| r.id).ok()
    }

    fn rec(&mut self, t: TaskId) -> &mut TaskRec {
        let i = self.find(t).expect("a running task has a record");
        &mut self.recs[i]
    }

    /// Live tasks, daemons included: the table's size.
    pub fn live(&self) -> usize {
        self.recs.len()
    }

    /// Live daemons.
    pub fn daemons(&self) -> usize {
        self.daemons
    }

    /// Tasks in the run queue.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The `i`th task of the run queue.
    pub fn queued(&self, i: usize) -> TaskId {
        self.ready[i]
    }

    /// The task that holds the node's baton, if one does.
    pub fn current(&self) -> Option<TaskId> {
        self.current
    }

    /// Whether a task waits on the inbox.
    pub fn waits_for_inbox(&self) -> bool {
        self.inbox_waiting > 0
    }

    /// Take the head of the run queue and hand it the baton: its id and its
    /// context, to switch to.
    pub fn run_next(&mut self) -> Option<(TaskId, Arc<TaskCell>)> {
        let t = self.ready.pop_front()?;
        self.current = Some(t);
        let rec = self.rec(t);
        debug_assert_eq!(rec.state, TaskState::Ready);
        rec.state = TaskState::Running;
        Some((t, Arc::clone(&rec.cell)))
    }

    /// Put the running task `me` back in the run queue: behind the others,
    /// or at the `front` to resume before them.
    pub fn requeue(&mut self, me: TaskId, front: bool) {
        self.rec(me).state = TaskState::Ready;
        self.current = None;
        let at = if front { 0 } else { self.ready.len() };
        self.ready.insert(at, me);
    }

    /// Leave the running task `me` waiting in `state`. Returns its wake
    /// generation, which a timer ending this wait carries.
    pub fn block(&mut self, me: TaskId, state: TaskState) -> u64 {
        debug_assert!(state.waits(), "block in {state:?}");
        self.current = None;
        if state == TaskState::InboxWait {
            self.inbox_waiting += 1;
            if !self.inbox_waiters.contains(&me) {
                self.inbox_waiters.push(me);
            }
        }
        let rec = self.rec(me);
        rec.state = state;
        rec.gen
    }

    /// Queue the waiting task of record `i`, bumping its generation.
    fn wake_at(&mut self, i: usize) {
        let rec = &mut self.recs[i];
        debug_assert!(rec.state.waits(), "wake of a task in {:?}", rec.state);
        self.inbox_waiting -= (rec.state == TaskState::InboxWait) as usize;
        rec.state = TaskState::Ready;
        rec.gen += 1;
        self.ready.push_back(rec.id);
    }

    /// Queue `t` if it exists and `ends` says this wake ends its wait.
    fn wake_if(&mut self, t: TaskId, ends: impl Fn(&TaskRec) -> bool) -> bool {
        let i = self.find(t).filter(|&i| ends(&self.recs[i]));
        i.map(|i| self.wake_at(i)).is_some()
    }

    /// `unpark`: wake `t` if it is parked or waits on the inbox, and drop the
    /// call otherwise — no token is kept. Returns whether it woke `t`.
    pub fn unpark(&mut self, t: TaskId) -> bool {
        self.check(t, "unpark");
        self.wake_if(t, |r| {
            matches!(r.state, TaskState::Parked | TaskState::InboxWait)
        })
    }

    /// A timer armed at generation `gen` fires: it wakes `t` only from the
    /// sleep or timed inbox wait that armed it. Returns whether it did.
    pub fn wake_timed(&mut self, t: TaskId, gen: u64) -> bool {
        let armed = |r: &TaskRec| {
            r.gen == gen && matches!(r.state, TaskState::InboxWait | TaskState::Sleeping)
        };
        self.wake_if(t, armed)
    }

    /// A frame reached the inbox: wake every listed task that still waits on
    /// it, in list order, and empty the list.
    pub fn wake_inbox_waiters(&mut self) {
        let mut waiters = std::mem::take(&mut self.inbox_waiters);
        for t in waiters.drain(..) {
            self.wake_if(t, |r| r.state == TaskState::InboxWait);
        }
        self.inbox_waiters = waiters;
    }

    /// `me` joins `t`: `false` once `t` has exited; else `me` is listed on
    /// `t`'s joiners, which its exit wakes, and the caller parks `me`. A join
    /// loops on the two, since an `unpark` also ends the park.
    pub fn join(&mut self, me: TaskId, t: TaskId) -> bool {
        self.check(t, "join");
        assert!(t != me, "`join` of {t:?} by itself would never return");
        let Some(i) = self.find(t) else {
            return false;
        };
        let joiners = &mut self.recs[i].joiners;
        if !joiners.contains(&me) {
            joiners.push(me);
        }
        true
    }

    /// Whether `t` has exited: this node issued it and holds no record.
    pub fn is_finished(&self, t: TaskId) -> bool {
        self.check(t, "is_finished");
        self.find(t).is_none()
    }

    /// The running task `me` exits: drop its record and wake its joiners.
    /// Returns whether it was a daemon.
    pub fn exit(&mut self, me: TaskId) -> bool {
        let i = self.find(me).expect("an exiting task has a record");
        let rec = self.recs.remove(i);
        self.current = None;
        self.daemons -= rec.daemon as usize;
        for j in rec.joiners {
            self.wake_if(j, |r| r.state == TaskState::Parked);
        }
        rec.daemon
    }

    /// Teardown: wake every waiting task, in id order — whoever would have
    /// woken one may be gone, and waking spuriously beats deadlocking.
    pub fn release(&mut self) {
        for i in 0..self.recs.len() {
            if self.recs[i].state.waits() {
                self.wake_at(i);
            }
        }
    }

    /// One line per live task, in id order, for a deadlock report.
    pub fn dump(&self, out: &mut String) {
        for r in &self.recs {
            let (id, name, node, state) = (r.id.0, &r.name, self.node, r.state);
            let _ = writeln!(out, "  task {id} '{name}' on node {node}: {state:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::HandoffCell;

    fn cell() -> Arc<TaskCell> {
        Arc::new(TaskCell::Threads(HandoffCell::new(false)))
    }

    /// Node 1 of 3 with `n` tasks spawned; the first one runs.
    fn table(n: usize) -> (NodeTasks, Vec<TaskId>) {
        let mut t = NodeTasks::new(1, 3);
        let ids = (0..n)
            .map(|_| t.spawn(cell(), String::new(), false))
            .collect();
        t.run_next().expect("a spawned task is ready");
        (t, ids)
    }

    fn run_order(t: &mut NodeTasks) -> Vec<TaskId> {
        std::iter::from_fn(|| t.run_next().map(|(id, _)| id)).collect()
    }

    #[test]
    fn ids_name_their_node_and_records_follow_the_live_set() {
        let (mut t, ids) = table(3);
        assert_eq!(ids, [TaskId(1), TaskId(4), TaskId(7)]);
        assert_eq!(t.live(), 3);
        t.exit(ids[0]);
        assert!(t.is_finished(ids[0]) && !t.is_finished(ids[1]));
        assert_eq!(t.live(), 2);
        // A dropped record swallows an unpark and ends a join at once.
        assert!(!t.unpark(ids[0]));
        assert!(!t.join(ids[1], ids[0]));
    }

    #[test]
    fn a_listed_inbox_waiter_keeps_its_place() {
        let (mut t, ids) = table(2);
        let (a, b) = (ids[0], ids[1]);
        // A's timed wait expires; B starts waiting; A waits again.
        let gen = t.block(a, TaskState::InboxWait);
        assert_eq!(run_order(&mut t), [b]);
        assert!(t.wake_timed(a, gen));
        assert!(!t.wake_timed(a, gen), "a timer fires once");
        t.block(b, TaskState::InboxWait);
        assert_eq!(run_order(&mut t), [a]);
        t.block(a, TaskState::InboxWait);
        assert!(t.waits_for_inbox());
        t.wake_inbox_waiters();
        assert!(!t.waits_for_inbox());
        assert_eq!(run_order(&mut t), [a, b]);
    }

    #[test]
    fn a_joiner_parks_until_its_target_exits() {
        let (mut t, ids) = table(2);
        let (me, target) = (ids[0], ids[1]);
        assert!(t.join(me, target));
        t.block(me, TaskState::Parked);
        assert_eq!(run_order(&mut t), [target]);
        // An unpark wakes the joiner, which parks again on the same list.
        assert!(t.unpark(me));
        assert_eq!(run_order(&mut t), [me]);
        assert!(t.join(me, target));
        t.block(me, TaskState::Parked);
        let since = t.ready_len();
        t.exit(target);
        assert_eq!(
            (t.ready_len() - since, t.queued(since)),
            (1, me),
            "listed once"
        );
        assert_eq!(run_order(&mut t), [me]);
        assert!(!t.join(me, target));
    }

    /// What `f` panics with on a table whose one task, `TaskId(1)`, runs.
    fn refusal(f: impl FnOnce(&mut NodeTasks)) -> String {
        let (mut t, _) = table(1);
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut t)));
        *p.expect_err("refused")
            .downcast::<String>()
            .expect("formatted")
    }

    #[test]
    fn refused_targets_fail_with_the_rule() {
        assert_eq!(
            refusal(|t| _ = t.unpark(TaskId(2))),
            format!("`unpark` of TaskId(2) {ACROSS_NODES}")
        );
        assert_eq!(
            refusal(|t| _ = t.is_finished(TaskId(4))),
            "`is_finished` of TaskId(4): no such task was spawned"
        );
        assert_eq!(
            refusal(|t| _ = t.join(TaskId(1), TaskId(1))),
            "`join` of TaskId(1) by itself would never return"
        );
    }
}
