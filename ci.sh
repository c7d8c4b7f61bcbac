#!/usr/bin/env bash
# Full local CI gate: build, the simulator's committed outputs byte for
# byte, tests, lints, formatting, and the wall-clock smokes. Nothing is
# retried: every step is deterministic or decides for itself.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> results/: the simulator's committed outputs, byte for byte"
# The simulator's one gate. Each deterministic binary runs once at the scale
# results/ holds and keeps its own self-checks (non-empty rows, fault-free
# identity, coalescing invariants); its stdout goes to results/<bin>.txt and
# its --json to results/<bin>.json (untracked). Any moved number fails the
# step: `sha256sum -c` names each JSON whose digest moved (and then rewrites
# SHA256SUMS), and `git diff` shows each text that changed against the
# committed (or staged) copy. The committed digests come from one worker
# (`taskset -c 0 ./ci.sh`) and are checked here at the default worker count.
# Regenerating is running this step and committing what changed. table1
# stays out: it counts this tree's own lines.
cargo build --release -p mpmd-bench
jsons=() texts=()
for cmd in table4 fig5 fig6 msgprofile nexus_cmp scaling claims "ablation --coalescing" faults; do
    bin=${cmd%% *}
    # $cmd unquoted: the binary, then its flags.
    ./target/release/$cmd --json "results/$bin.json" >"results/$bin.txt"
    jsons+=("results/$bin.json") texts+=("results/$bin.txt")
done
sha256sum --quiet -c results/SHA256SUMS || sha256sum "${jsons[@]}" >results/SHA256SUMS
git ls-files --error-unmatch results/SHA256SUMS "${texts[@]}" >/dev/null
git diff --exit-code -- results/
echo "results/ reproduced byte for byte"

echo "==> results/ digests on the threads backend, where the kernel crosses OS threads"
# The fiber backend keeps every context on one thread; the threads backend
# hands the kernel between OS threads at each baton switch. Four binaries
# rerun there in release and must match their committed digests, checked
# against the SHA256SUMS line without rewriting it: scaling holds the most
# frames the kernel's per-link order moves. The pinned trace goldens (the
# per-node probes' rings) must match byte for byte there too. The threads
# package's lib tests run there as well: its locks and condition variables
# keep their state in lock-free node cells, which rely on the baton hand-off
# ordering memory when successive tasks of a node run on different OS
# threads, which never happens on the fiber backend. So do two CC++ RMI
# tests: the wire-encoding battery (rmi_encoding: every call shape arrives
# and returns exactly from the frames) and the call-record guard
# (call_records' a_callee_that_touches_a_warm_record_fails_the_run_*: a
# callee that reads the caller's half of a record fails the run). So do the
# sibling twins of the handle rule (fabric_conformance's
# lent_handle_sibling_sim / _local: a sibling's park, park_for_inbox*, sleep,
# yield_now and join through its parent's handle fail the run with
# BORROWED, and its charge, send_msg and try_recv go through), since a
# blocking call through the wrong handle would switch the wrong context.
tmp=$(mktemp -d)
for bin in table4 fig5 scaling faults; do
    MPMD_SIM_BACKEND=threads ./target/release/$bin --json "$tmp/$bin.json" >/dev/null
    grep " results/$bin.json\$" results/SHA256SUMS | sed "s| results/| $tmp/|" | sha256sum -c --quiet
done
rm -rf "$tmp"
MPMD_SIM_BACKEND=threads cargo test --release -q -p mpmd-bench --test trace_observability --test flame_golden
MPMD_SIM_BACKEND=threads cargo test --release -q -p mpmd-threads --lib
MPMD_SIM_BACKEND=threads cargo test --release -q -p mpmd-ccxx --test rmi_encoding --test call_records
MPMD_SIM_BACKEND=threads cargo test --release -q -p mpmd-am --test fabric_conformance lent_handle_sibling
echo "threads backend reproduces table4, fig5, scaling, faults and the trace goldens"

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> thread_local! only in the baton and the allocation counter"
# Which node's task runs on a thread has one answer: the record the baton
# keeps (sim/src/baton.rs), which the kernel, the node scheduler, node data
# and every NodeCell read. A second thread-local would be a second answer
# that can disagree. alloc_count.rs counts each thread's allocations. The
# body of a top-level `#[cfg(test)] mod ... {`, up to its closing `}` in
# column 0, is test code and exempt.
stray=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { prev = ""; skip = 0 }
    skip && /^}/ { skip = 0; prev = $0; next }
    skip { next }
    prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
    /thread_local!/ { print FILENAME ":" FNR }
    { prev = $0 }' {} + |
    grep -v -e '^crates/sim/src/baton.rs:' -e '^crates/sim/src/alloc_count.rs:' || true)
if [ -n "$stray" ]; then
    echo "thread_local! outside the baton:" >&2
    echo "$stray" >&2
    exit 1
fi

echo "==> one Fabric body: exactly one impl of the trait"
# The Fabric trait has one body, mpmd_sim::Handle (sim/src/ctx.rs), written
# over a driver per machine: the simulator's kernel and the wall clock's
# nodes. A second `impl ... Fabric for` would be a second body that can
# drift from the first. The body of a top-level `#[cfg(test)] mod ... {`, up
# to its closing `}` in column 0, is test code and exempt.
impls=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { prev = ""; skip = 0 }
    skip && /^}/ { skip = 0; prev = $0; next }
    skip { next }
    prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
    /^[[:space:]]*impl[[:space:]<]/ && /[[:space:]:]Fabric for[[:space:]]/ { print FILENAME ":" FNR }
    { prev = $0 }' {} +)
if [ "$(printf '%s\n' "$impls" | grep -c .)" -ne 1 ]; then
    echo "Fabric must have exactly one impl outside test code; found:" >&2
    echo "$impls" >&2
    exit 1
fi

echo "==> fabric ring stress + bounded links + wall-clock zero-alloc + bounded-task + call-record tests"
# The link ring's FIFO invariants through full rings with sender and
# receiver on two threads, the lost-wake-up battery (2 000 frame hand-offs
# with every wait parking at once), and the zero-allocation guarantee of the
# wall-clock short-send path (counting global allocator), in release mode
# where the fast paths are actually taken. The bounded link's contract:
# nodes that fill links to each other (two ways, a cycle of three) all
# proceed, an AM handler replies on a full link, a panic ends a wait for
# room, frames for a node with no tasks left drop exactly once, and a Split-C
# bulk stream never queues more than one ring. Also at full size only in
# release: 50 000 spawn/join pairs on each fabric (the one node task table
# holds the live set alone) and a 5 000-wide task wave on exactly one OS
# thread per node, 20 000 threaded RMIs in one run, and EM3D base in CC++
# at the paper's graph size (EM3D ghost in Split-C on four nodes, too, bit
# for bit against the reference). One layer up, the RMI's call records: a warm
# null RMI allocates nothing on either node of either fabric, nor does a warm
# gp_read / gp_write / gp_read3 on its caller (GP rides the same record), only
# the task that issued a call recycles its record, a callee that touches the
# caller's half of a record fails the run, a failed run frees every record,
# and an ended run frees its nodes' runtime state; and the RMI wire encoding
# (rmi_encoding): 0 to 4 words, every call mode, cold and warm, with and
# without a processor object or bytes, and a node calling itself. The simulator's
# own zero-alloc proof (sim/tests/alloc_count.rs): warm short round trips,
# and expiring timed inbox waits, allocate nothing, and the wave gate: a
# 300-wide spawn/join wave allocates per task what a 1-wide one does, because
# a fiber runtime keeps every stack it retired (no cap) and a new runtime
# draws first from the process-wide spare list that dropped ones fill.
# These assert completion and counts, not timings, so none is retried.
cargo test --release -q -p mpmd-fabric --test ring_stress --test alloc_count \
    --test bounded_tasks
cargo test --release -q -p mpmd-sim --test alloc_count
cargo test --release -q -p mpmd-am --test bounded_links
cargo test --release -q -p mpmd-splitc --test local_stream_memory
cargo test --release -q -p mpmd-ccxx --test alloc_count --test call_records --test teardown \
    --test rmi_encoding
cargo test --release -q -p mpmd-apps --test local_scale
echo "fabric stress + alloc + bounded-task + call-record tests OK"

echo "==> benchmark/ builds and runs (standalone crate, quick smoke)"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# change under crates/ could break the acceptance harness unnoticed. The
# quick pass runs all five workloads in a few seconds and exits non-zero on
# any failed operation.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick
echo "benchmark smoke OK"

echo "==> zero-allocation fast-path proof"
# A counting global allocator brackets 1000 short-message round trips and
# 1000 warm null RMIs (exactly 0 heap allocations each), 1000 AM bulk sends
# (bounded), 1000 Split-C blocking reads (exactly 0: the token and reply
# slot are reused), and 1000 each of Split-C 8 KiB bulk_stores (exactly 2 per op:
# the receiver decodes into the region) and CC++ 8 KiB bulk_put_flats
# (exactly 6 per op: no staging copy, no buffer regrowth); the bench aborts
# on regression.
cargo bench -p mpmd-bench --bench alloc_count 2>/dev/null | grep '^alloc_count/'
echo "alloc_count bounds OK"

echo "==> clippy: no boxed returns on the fast path"
# The zero-alloc paths must not regrow Box-returning APIs: the simulator's,
# LocalFabric's short send (fabric), and the layers over them.
cargo clippy -p mpmd-sim -p mpmd-fabric -p mpmd-am -p mpmd-ccxx -p mpmd-splitc -p mpmd-bench \
    --all-targets -- -D warnings -D clippy::unnecessary_box_returns
echo "unnecessary_box_returns clean"

echo "==> metrics no-registry overhead assertion"
# The registry must be zero-cost when absent: 10k disabled metric_observe
# calls may add at most 150 ns each over the no-hooks baseline run. The
# bench decides in-process on the minimum of alternating trials, prints what
# it measured and aborts over budget.
cargo bench -p mpmd-bench --bench metrics_overhead
echo "metrics gating overhead OK"

echo "==> schedule exploration sweep (mini model checker)"
# Seed-sampled perturbations of every engine don't-care point (node ties,
# event ties, forced slow paths) across the workload configs must uphold
# the any-schedule invariants: byte-identical fault-free reports, checksum
# identity under faults, zero short-path allocations, replay fidelity.
# The binary exits nonzero on any violation (printing the shrunk trace) or
# if the sweep covered fewer than 500 perturbations / 3 configurations;
# --quick must finish inside a minute.
timeout 60 ./target/release/explore --quick --json /tmp/ci_explore.json
rm -f /tmp/ci_explore.json
echo "explore sweep OK"

echo "==> threads-fallback build (fiber backend force-disabled)"
# --cfg mpmd_no_fibers compiles out the fiber switch the way a non-x86_64
# target would; both schedulers built on the baton must still build and
# behave the same with every task on a pooled OS thread. The baton's unit
# tests (a cell borrowed off its baton, a second running context, a nested
# run giving the outer holder back); the simulator's engine: its unit tests
# (the one Backend::switch, kernel re-entry, a handle used off the baton)
# and the engine-level integration tests, with Auto resolving to the threads backend
# (the exploration assertions compare against threads baselines, so passing
# proves identical output; widening_task_waves_under_perturbation runs its
# 300-wide waves on pooled OS threads here). The node task table both fabrics share: its unit
# tests, and its bounds on both fabrics in bounded_tasks. LocalFabric's node
# scheduler: its unit tests, in mpmd-sim's lib beside the one handle body
# (panic containment, re-entry and borrowed-handle rules, the ring alone),
# ring_stress (the ring does not
# depend on the baton, the idle loop that reads it does), the bounded-link
# battery (a wait for room keeps the baton) and the whole conformance suite,
# on which one node's tasks still run one at a time, scheduling across
# nodes still fails the run with the one message, and an unpark still does
# not end a sleep. The node-local rule: the runtime cells (the threads
# package's locks, AM's poll set, collective, reliable and coalescing state,
# both runtimes' regions and staged adds, Split-C's atomic table, CC++'s call
# records, stub tables and completion cells) lean on the baton hand-off to
# order memory between a node's tasks, which here run on different OS
# threads, so the threads package's lib tests (on the simulator's threads
# backend), Split-C's lib tests, the conformance cases node_local_sync
# (same-node contention and hand-off), node_local_rule (a touch from
# another node panics), lent_handle_sim / lent_handle_local (a handle
# another node's task lent fails a lock, charge, with_stats or node_data
# with the one handle rule) and their sibling twins lent_handle_sibling_sim /
# lent_handle_sibling_local (a sibling's blocking call through its parent's
# handle fails with BORROWED, with every task on its own OS thread), and
# local_scale (Water, LU and EM3D in both
# languages on OS-thread nodes, against their references) run here too. The
# RMI call records: the per-node free list, the rule that only the issuing
# task recycles and the guard on the caller's half of a record (call_records'
# a_callee_that_touches_a_warm_record_fails_the_run_*) must hold with every
# task on its own OS thread too, every call shape must cross the frames
# exactly there (the rmi_encoding battery), and an ended run must free its
# node singletons there as well. Split-C's lib tests include two tasks of a
# node whose blocking reads share the token free list. A separate
# target dir keeps the main cache warm.
no_fibers() {
    CARGO_TARGET_DIR=target/no_fibers RUSTFLAGS="--cfg mpmd_no_fibers" cargo test -q "$@"
}
no_fibers -p mpmd-sim --lib --test explore --test inbox_waiters --test proptest_engine
no_fibers -p mpmd-fabric --lib --test bounded_tasks --test ring_stress
no_fibers -p mpmd-threads --lib
no_fibers -p mpmd-am --test fabric_conformance --test bounded_links
no_fibers -p mpmd-splitc --lib
no_fibers -p mpmd-ccxx --test alloc_count --test call_records --test teardown --test rmi_encoding
no_fibers -p mpmd-apps --test local_scale
echo "threads fallback OK"

echo "==> all checks passed"
