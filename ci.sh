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

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc: no warnings, no broken intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> thread_local! only in the baton"
# Which node's task runs on a thread has one answer: the record the baton
# keeps (sim/src/baton.rs), which the kernel, the node scheduler, node data,
# every NodeCell and the allocation counter read. A second thread-local would
# be a second answer that can disagree. The body of a top-level
# `#[cfg(test)] mod ... {`, up to its closing `}` in column 0, is test code
# and exempt.
stray=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { prev = ""; skip = 0 }
    skip && /^}/ { skip = 0; prev = $0; next }
    skip { next }
    prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
    /thread_local!/ { print FILENAME ":" FNR }
    { prev = $0 }' {} + |
    grep -v -e '^crates/sim/src/baton.rs:' || true)
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

echo "==> the ledger: single-writer cells, no lock, no read-modify-write"
# Each node's counters and histograms (sim/src/{probe,stats,metrics}.rs) are
# its totals: cells that only the node's baton holder writes, with a relaxed
# load and a relaxed store, and that a snapshot reads in place. A lock or an
# atomic read-modify-write there would put a shared-line transfer back on
# every count. The body of a top-level `#[cfg(test)] mod ... {`, up to its
# closing `}` in column 0, is test code and exempt.
rmw=$(awk '
    FNR == 1 { prev = ""; skip = 0 }
    skip && /^}/ { skip = 0; prev = $0; next }
    skip { next }
    prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
    /fetch_|compare_exchange|Mutex/ { print FILENAME ":" FNR ": " $0 }
    { prev = $0 }' crates/sim/src/probe.rs crates/sim/src/stats.rs crates/sim/src/metrics.rs)
if [ -n "$rmw" ]; then
    echo "a lock or read-modify-write in the ledger:" >&2
    echo "$rmw" >&2
    exit 1
fi
# The layers' node-local counters likewise: only the owning node touches
# Split-C's pending and store counts or CC++'s spinners and object ids, so
# each is a Counter or a NodeCell, and no layer's code needs an atomic
# read-modify-write. (RelPacket.msg's Mutex stays: that packet travels
# between nodes.)
rmw=$(find crates/am/src crates/splitc/src crates/ccxx/src crates/threads/src -name '*.rs' \
    -exec awk '
    FNR == 1 { prev = ""; skip = 0 }
    skip && /^}/ { skip = 0; prev = $0; next }
    skip { next }
    prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
    /\.fetch_|compare_exchange/ { print FILENAME ":" FNR ": " $0 }
    { prev = $0 }' {} +)
if [ -n "$rmw" ]; then
    echo "a read-modify-write of node-local state in a layer:" >&2
    echo "$rmw" >&2
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
# for bit against the reference). Allocations count to the node that makes
# them (fabric's alloc_count, on both fabrics). One layer up, the call
# records (mpmd-am's reply.rs) of both runtimes: only the task that issued a
# call recycles its record, a callee that touches the caller's half of a record
# fails the run, in CC++ (call_records) and in Split-C
# (splitc's a_callee_that_touches_a_warm_record_fails_the_run_*), a failed
# run frees every record, and an ended run frees its nodes' runtime state;
# and the RMI wire encoding (rmi_encoding): 0 to 4 words, every call mode,
# cold and warm, with and without a processor object or bytes, and a node
# calling itself. A frame carries its sender's counts (fabric_conformance's
# frame_carries_counts, on both fabrics): 10 000 round trips, each snapshot
# taken on receipt holding exactly what the sender counted before it, with
# no barrier, and snapshots taken while the peer counts never go backwards.
# Table 4 as equations (mpmd-bench's micro.rs): every Table 4
# and OAM row, in both languages, has its charge vector written once, and
# table4_charges_match_the_trace holds the simulator's traced charges, and
# its Stats, to it exactly; the count gate
# (table4_counts_agree_on_both_fabrics) runs every row through the one
# harness body on the simulator and on LocalFabric: messages, bytes,
# handlers and thread creates per op are the table's on both, and so are
# the simulator's switches and sync ops, and every row's heap allocations
# per node: a warm Simple or Blocking null RMI and a Split-C blocking read
# allocate nothing on either node, a threaded RMI or a GP access nothing on
# its caller and no more on its callee than a bare spawn + join, an 8 KiB
# Split-C bulk_store 2 and an AM 1 KiB bulk send 2 on the sender, an 8 KiB
# CC++ bulk_put_flat 2 on its caller and one thread create on its callee.
# The simulator's own zero-alloc proof
# (sim/tests/alloc_count.rs): warm short round trips, and expiring timed
# inbox waits, allocate nothing, and the wave gate: a
# 300-wide spawn/join wave allocates per task what a 1-wide one does, because
# a fiber runtime keeps every stack it retired (no cap) and a new runtime
# draws first from the process-wide spare list that dropped ones fill.
# These assert completion and counts, not timings, so none is retried.
cargo test --release -q -p mpmd-fabric --test ring_stress --test alloc_count \
    --test bounded_tasks
cargo test --release -q -p mpmd-sim --test alloc_count
cargo test --release -q -p mpmd-am --test bounded_links
cargo test --release -q -p mpmd-am --test fabric_conformance frame_carries_counts
cargo test --release -q -p mpmd-splitc --test local_stream_memory
cargo test --release -q -p mpmd-ccxx --test call_records --test teardown --test rmi_encoding
cargo test --release -q -p mpmd-splitc --lib a_callee_that_touches_a_warm_record_fails_the_run
cargo test --release -q -p mpmd-bench --lib -- table4_counts_agree_on_both_fabrics \
    table4_charges_match_the_trace
cargo test --release -q -p mpmd-apps --test local_scale
echo "fabric stress + alloc + bounded-task + call-record tests OK"

echo "==> benchmark/ builds and runs (standalone crate, quick smoke)"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# change under crates/ could break the acceptance harness unnoticed. The
# quick pass runs all five workloads in a few seconds and exits non-zero on
# any failed operation.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick
echo "benchmark smoke OK"

echo "==> clippy: no boxed returns on the fast path"
# The zero-alloc paths must not regrow Box-returning APIs: the simulator's,
# LocalFabric's short send (fabric), and the layers over them.
cargo clippy -p mpmd-sim -p mpmd-fabric -p mpmd-am -p mpmd-ccxx -p mpmd-splitc -p mpmd-bench \
    --all-targets -- -D warnings -D clippy::unnecessary_box_returns
echo "unnecessary_box_returns clean"

echo "==> metrics no-registry overhead assertion"
# The registry must be zero-cost when absent: 10k disabled metric_observe
# calls may add at most 150 ns each over the no-hooks baseline run. On
# LocalFabric, metrics may add at most 20 ns to a Split-C store and the poll
# after it (the fastest of many bursts with metrics on, minus with them off).
# The bench decides in-process on the minimum of alternating trials, prints
# what it measured and aborts over budget.
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

echo "==> the pooled-thread host: a --cfg mpmd_no_fibers release build"
# Off x86-64 unix the build hosts tasks on pooled OS threads instead of
# fibers; --cfg mpmd_no_fibers builds that host here, in its own target dir.
# Nothing a run computes may depend on the host: five binaries must match
# their committed digests (checked, not rewritten), and the trace goldens,
# the flame golden and the explore sweep (its alloc probe included) must
# pass unchanged. The tests are those whose subject
# hands a node's state between OS threads there: the baton, both schedulers
# and the node task table, LocalFabric's links, and the node-local cells of
# the threads package, Split-C and CC++, among them both runtimes' call
# records (CC++'s call_records, and Split-C's
# a_callee_that_touches_a_warm_record_fails_the_run_* in its --lib tests),
# and Table 4's count gate and charge vectors (mpmd-bench's
# table4_counts_agree_on_both_fabrics and table4_charges_match_the_trace):
# both task hosts must give the same counts and the same vectors, and hold
# every row's allocations per node. The allocation proofs one layer down
# (sim's and fabric's alloc_count) run here too: a node's allocations count
# to it wherever its tasks run. The
# conformance suite includes frame_carries_counts: a baton hand-off between
# pooled threads must publish the counts too.
no_fibers() {
    CARGO_TARGET_DIR=target/no_fibers RUSTFLAGS="--cfg mpmd_no_fibers" cargo "$@"
}
no_fibers build --release -q -p mpmd-bench
tmp=$(mktemp -d)
for bin in table4 fig5 scaling faults msgprofile; do
    target/no_fibers/release/$bin --json "$tmp/$bin.json" >/dev/null
    grep " results/$bin.json\$" results/SHA256SUMS | sed "s| results/| $tmp/|" | sha256sum -c --quiet
done
timeout 60 target/no_fibers/release/explore --quick --json "$tmp/explore.json"
rm -rf "$tmp"
no_fibers test --release -q -p mpmd-bench --test trace_observability --test flame_golden
no_fibers test --release -q -p mpmd-sim --lib --test explore --test inbox_waiters \
    --test proptest_engine --test alloc_count
no_fibers test --release -q -p mpmd-fabric --lib --test bounded_tasks --test ring_stress \
    --test alloc_count
no_fibers test --release -q -p mpmd-threads --lib
no_fibers test --release -q -p mpmd-am --test fabric_conformance --test bounded_links
no_fibers test --release -q -p mpmd-splitc --lib
no_fibers test --release -q -p mpmd-ccxx --test call_records --test teardown --test rmi_encoding
no_fibers test --release -q -p mpmd-bench --lib -- table4_counts_agree_on_both_fabrics \
    table4_charges_match_the_trace
no_fibers test --release -q -p mpmd-apps --test local_scale
echo "pooled-thread host reproduces results/, the goldens and the sweep"

echo "==> all checks passed"
