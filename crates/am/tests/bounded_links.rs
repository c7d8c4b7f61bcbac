//! The bounded link's contract on the wall-clock fabric: a send that finds
//! its link full waits in place for room and runs no handler, and while it
//! waits it moves its own node's full inbound links into a per-link stash.
//! So nodes that fill links to each other all proceed, an AM handler may
//! reply on a full link, a poisoned run still fails instead of hanging, and a
//! frame for a node whose tasks have all exited is dropped, exactly once.
//!
//! Every run has a deadline, so a deadlock fails the test instead of hanging
//! it; `ci.sh` runs the file on both batons (fibers and `mpmd_no_fibers`).

use mpmd_am as am;
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{Payload, Report};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The smallest ring a link can fill twice over in a handful of frames.
const CAPACITY: usize = 2;

/// `body` on `nodes` nodes with `CAPACITY`-slot links, on a helper thread:
/// `Err(payload)` if the run failed. Fails the test if the run hangs.
fn run_with_timeout<G>(nodes: usize, body: G) -> std::thread::Result<Report>
where
    G: Fn(LocalFabric) + Send + Sync + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let built = LocalFabricBuilder::new(nodes).ring_capacity(CAPACITY);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| built.run(body)));
        let _ = tx.send(());
        out
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("LocalFabric::run hung: a full link deadlocked");
    helper.join().expect("helper thread")
}

/// The next frame, waiting for it on the inbox.
fn recv(fab: &LocalFabric) -> (usize, u64) {
    loop {
        match fab.try_recv() {
            Some(m) => return (m.src, *m.payload.downcast::<u64>().expect("a u64 frame")),
            None => fab.park_for_inbox(),
        }
    }
}

/// Every node sends `10 × CAPACITY` frames to the next before it receives
/// anything, then takes as many from the previous one, in order. Two nodes
/// fill the links between them both ways; three fill a cycle.
fn fill_links_before_receiving(nodes: usize) {
    const FRAMES: u64 = 10 * CAPACITY as u64;
    let r = run_with_timeout(nodes, |fab| {
        let n = fab.nodes();
        let (next, prev) = ((fab.node() + 1) % n, (fab.node() + n - 1) % n);
        for i in 0..FRAMES {
            fab.send_msg(next, 8, 0, Payload::any(i));
        }
        for i in 0..FRAMES {
            assert_eq!(
                recv(&fab),
                (prev, i),
                "link {prev}->{} reordered",
                fab.node()
            );
        }
        // A node's own `inbox_len` counts its stash.
        assert_eq!(fab.inbox_len(), 0, "a stashed frame was not served");
    })
    .expect("the run completes");
    for s in &r.stats {
        assert_eq!((s.msgs_sent, s.msgs_received), (FRAMES, FRAMES));
    }
}

#[test]
fn two_nodes_fill_the_links_between_them() {
    fill_links_before_receiving(2);
}

#[test]
fn three_nodes_fill_a_cycle_of_links() {
    fill_links_before_receiving(3);
}

const H_REQ: am::HandlerId = 100;
const H_REPLY: am::HandlerId = 101;

/// Node 0 issues requests without polling between them, so node 1's
/// replies — sent from inside its request handler — find the link back full
/// while node 0 waits on the full link the other way. Both waits end by each
/// node stashing the other's frames; every reply arrives, in order.
#[test]
fn an_am_handler_replies_on_a_full_link() {
    const REQUESTS: u64 = 1_000;
    run_with_timeout(2, |fab| {
        let quiet = am::NetProfile {
            poll_on_send: false,
            ..am::NetProfile::sp_am_splitc()
        };
        am::init(&fab, quiet);
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        am::register(&fab, H_REQ, move |ctx, m| {
            am::endpoint(ctx)
                .to(m.src)
                .handler(H_REPLY)
                .args(m.args)
                .send();
            d.fetch_add(1, Ordering::Relaxed);
        });
        let d = Arc::clone(&done);
        am::register(&fab, H_REPLY, move |_, m| {
            assert_eq!(m.args[0], d.load(Ordering::Relaxed), "replies reordered");
            d.fetch_add(1, Ordering::Relaxed);
        });
        if fab.node() == 0 {
            for i in 0..REQUESTS {
                am::endpoint(&fab)
                    .to(1)
                    .handler(H_REQ)
                    .args([i, 0, 0, 0])
                    .send();
            }
        }
        am::wait_until(&fab, || done.load(Ordering::Relaxed) == REQUESTS);
    })
    .expect("the run completes");
}

/// A sender waiting for room is unwound when another task panics: the run
/// fails with that panic. Node 1 never receives; it panics once node 0's
/// link to it is full, which leaves node 0 waiting for good.
#[test]
fn a_panic_ends_a_wait_for_room() {
    let payload = run_with_timeout(2, |fab| {
        if fab.node() == 0 {
            // Ends only by unwinding.
            loop {
                fab.send_msg(1, 8, 0, Payload::any(0u64));
            }
        } else {
            while fab.inbox_len() < CAPACITY {
                fab.yield_now();
            }
            panic!("node 1 gave up");
        }
    })
    .expect_err("the run must fail with node 1's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 gave up"));
}

/// Counts its drops under its own index.
struct Token(usize, Arc<Vec<AtomicUsize>>);

impl Drop for Token {
    fn drop(&mut self) {
        self.1[self.0].fetch_add(1, Ordering::SeqCst);
    }
}

/// Node 1 takes one frame and exits, so node 0's later sends find a full
/// link to a node that will never receive again: the run ends, and every
/// frame — taken, left in the ring, or refused at the full link — is
/// dropped exactly once, whether the run ends well or poisoned.
#[test]
fn frames_for_a_node_with_no_tasks_left_drop_exactly_once() {
    const FRAMES: usize = 5 * CAPACITY;
    for poisoned in [false, true] {
        let drops: Arc<Vec<AtomicUsize>> =
            Arc::new((0..FRAMES).map(|_| AtomicUsize::new(0)).collect());
        let d = Arc::clone(&drops);
        let outcome = run_with_timeout(2, move |fab| {
            if fab.node() == 0 {
                for i in 0..FRAMES {
                    fab.send_msg(1, 8, 0, Payload::any(Token(i, Arc::clone(&d))));
                }
                if poisoned {
                    panic!("node 0 gave up");
                }
                return;
            }
            while fab.try_recv().is_none() {
                fab.park_for_inbox();
            }
        });
        assert_eq!(outcome.is_err(), poisoned);
        drop(outcome);
        for (i, n) in drops.iter().enumerate() {
            let n = n.load(Ordering::SeqCst);
            assert_eq!(n, 1, "frame {i} dropped {n} times (poisoned: {poisoned})");
        }
    }
}
