//! Regression tests for the inbox waiter list.
//!
//! The list is deduplicated at park time: a task that parks for its inbox,
//! is woken by something other than a delivery (a timeout here), and parks
//! again must appear on the list once — a duplicated entry would enqueue the
//! task into the ready queue twice on the next delivery, and the second pop
//! would find a task that is no longer `Runnable`.

use mpmd_sim::{Fabric, Payload, Sim};

#[test]
fn task_parked_twice_for_same_inbox_wakes_exactly_once() {
    let r = Sim::new(2).run(|ctx| {
        if ctx.node() == 0 {
            // First park times out with the inbox still empty, leaving this
            // task's waiter entry behind.
            ctx.park_for_inbox_until(1_000);
            assert_eq!(ctx.now(), 1_000, "first park must end by timeout");
            assert!(ctx.try_recv().is_none());
            // Second park for the same inbox: must not add a second entry.
            ctx.park_for_inbox();
            let m = ctx.try_recv().expect("delivery wake finds the message");
            assert_eq!(*m.payload.downcast::<u64>().unwrap(), 7);
            assert_eq!(ctx.now(), 5_000);
            // If the delivery had woken us twice, the spurious wake would
            // surface here: a third park would return before its deadline
            // with nothing in the inbox.
            ctx.park_for_inbox_until(9_000);
            assert_eq!(ctx.now(), 9_000, "spurious wake before the deadline");
            assert!(ctx.try_recv().is_none());
        } else {
            ctx.sleep(4_000);
            ctx.send_msg(0, 8, 1_000, Payload::any(7u64));
        }
    });
    assert_eq!(r.clocks[0], 9_000);
}

#[test]
fn timeout_then_delivery_wakes_each_waiting_task_once() {
    // Two tasks on the same node both time out, re-park, and then a single
    // delivery arrives. The delivery wakes each listed waiter exactly once,
    // in park order: the first-parked task consumes the message; the second
    // wakes empty-handed, re-parks, and must then sleep undisturbed to its
    // deadline (a stale duplicate entry would wake it early).
    let r = Sim::new(2).run(|ctx| {
        if ctx.node() == 0 {
            let t = ctx.spawn("second-waiter", |c| {
                c.park_for_inbox_until(2_000);
                assert!(c.try_recv().is_none());
                c.park_for_inbox_until(20_000);
                assert_eq!(c.now(), 5_000, "woken once by the delivery");
                assert!(c.try_recv().is_none(), "first waiter consumed it");
                c.park_for_inbox_until(8_000);
                assert_eq!(c.now(), 8_000, "spurious wake before deadline");
            });
            ctx.park_for_inbox_until(1_000);
            assert!(ctx.try_recv().is_none());
            ctx.park_for_inbox();
            let m = ctx.try_recv().expect("first waiter gets the message");
            assert_eq!(*m.payload.downcast::<u64>().unwrap(), 9);
            assert_eq!(ctx.now(), 5_000);
            ctx.join(t);
        } else {
            ctx.sleep(4_000);
            ctx.send_msg(0, 8, 1_000, Payload::any(9u64));
        }
    });
    assert_eq!(r.clocks[0], 8_000);
}
