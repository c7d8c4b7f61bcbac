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

echo "==> cargo clippy --workspace --all-targets: warnings and boxed returns"
# No unnecessary Box return either: the zero-alloc paths must not regrow one.
# (clippy.toml has exported functions linted too; only names containing "box"
# stay exempt.) The pooled-thread host is linted with its build below.
clippy_all() {
    "$@" clippy --workspace --all-targets -- -D warnings -D clippy::unnecessary_box_returns
}
clippy_all cargo

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc: no warnings, no broken intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> every DESIGN.md § reference names a section of DESIGN.md"
# Code and docs point into DESIGN.md by section number ("DESIGN.md §4a",
# "`DESIGN.md` §3 and §3d"); a section renumbered or removed must take its
# references with it. Each § of a reference must be a `## x.` heading.
sections=$(sed -n 's/^## \([0-9][0-9]*[a-z]*\)\. .*/\1/p' DESIGN.md)
refs=$(grep -rnoEI 'DESIGN(\.md)?`? §[0-9]+[a-z]*((,| and| or) §[0-9]+[a-z]*)*' \
    crates src tests examples README.md EXPERIMENTS.md || true)
if [ -z "$refs" ]; then
    echo "found no DESIGN.md § reference at all: the pattern is broken" >&2
    exit 1
fi
dangling=$(while IFS= read -r ref; do
    for s in $(grep -oE '§[0-9]+[a-z]*' <<<"${ref#*:*:}"); do
        grep -qx "${s#§}" <<<"$sections" || echo "$ref: DESIGN.md has no section ${s#§}"
    done
done <<<"$refs")
if [ -n "$dangling" ]; then
    echo "$dangling" >&2
    exit 1
fi
echo "$(grep -c . <<<"$refs") DESIGN.md references resolve"

# Print `file:line: text` for each line of the Rust files in $2... (files or
# directories) that matches the awk regex $1 outside test code: the body of a
# top-level `#[cfg(test)] mod ... {`, up to its closing `}` in column 0, is
# exempt.
outside_tests() {
    PATTERN=$1 find "${@:2}" -name '*.rs' -exec awk '
        FNR == 1 { prev = ""; skip = 0 }
        skip && /^}/ { skip = 0; prev = $0; next }
        skip { next }
        prev ~ /^#\[cfg\(test\)\]$/ && /^mod .*\{$/ { skip = 1; prev = $0; next }
        $0 ~ ENVIRON["PATTERN"] { print FILENAME ":" FNR ": " $0 }
        { prev = $0 }' {} +
}

echo "==> thread_local! only in the baton"
# Which node's task runs on a thread has one answer: the record the baton
# keeps (sim/src/baton.rs), which the kernel, the node scheduler, node data,
# every NodeCell and the allocation counter read. A second thread-local would
# be a second answer that can disagree.
stray=$(outside_tests 'thread_local!' crates/*/src | grep -v '^crates/sim/src/baton.rs:' || true)
if [ -n "$stray" ]; then
    echo "thread_local! outside the baton:" >&2
    echo "$stray" >&2
    exit 1
fi

echo "==> one Fabric body: exactly one impl of the trait"
# The Fabric trait has one body, mpmd_sim::Handle (sim/src/ctx.rs), written
# over a driver per machine: the simulator's kernel and the wall clock's
# nodes. A second `impl ... Fabric for` would be a second body that can
# drift from the first.
impls=$(outside_tests '^[[:space:]]*impl([[:space:]<].*)?[[:space:]:]Fabric for[[:space:]]' \
    crates/*/src)
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
# every count.
rmw=$(outside_tests 'fetch_|compare_exchange|Mutex' crates/sim/src/{probe,stats,metrics}.rs)
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
rmw=$(outside_tests '\.fetch_|compare_exchange' crates/{am,splitc,ccxx,threads}/src)
if [ -n "$rmw" ]; then
    echo "a read-modify-write of node-local state in a layer:" >&2
    echo "$rmw" >&2
    exit 1
fi

echo "==> the host-dependent tests, in release, on fibers"
# The tests whose subject hands a node's state between contexts or OS threads
# run in release, where the fast paths are taken, once on each task host
# (here, and below on pooled threads): both must give the same counts, the
# same charge vectors and the same traces, and hold the same bounds.
# - mpmd-sim and -fabric: the baton, both schedulers and the node task table
#   (--lib), schedule exploration (explore, proptest_engine), inbox waiters;
#   LocalFabric's link ring through full rings with sender and receiver on
#   two threads, and the lost-wake-up battery (ring_stress); 50 000
#   spawn/join pairs on each fabric with only the live set in the table, and
#   a 5 000-wide task wave on one OS thread per node (bounded_tasks). The
#   zero-allocation proofs (alloc_count): allocations count to the node that
#   makes them, warm short round trips and expiring timed inbox waits
#   allocate nothing, and a 300-wide spawn/join wave allocates per task what
#   a 1-wide one does.
# - mpmd-threads, and Split-C's --lib: the node-local cells of the threads
#   package and of Split-C, whose callee fails the run if it touches a warm
#   call record's caller half.
# - mpmd-am: the conformance suite on both fabrics (a frame carries its
#   sender's counts, among the rest), and the bounded link's contract: nodes
#   that fill links to each other proceed, an AM handler replies on a full
#   link, a panic ends a wait for room, frames for a node with no task left
#   drop once (bounded_links). A Split-C bulk stream never queues more than
#   one ring (local_stream_memory).
# - mpmd-ccxx: only the task that issued a call recycles its record, a failed
#   run frees every record, an ended run frees its node singletons, and every
#   call shape crosses the RMI frames exactly.
# - mpmd-bench: the trace and flame goldens; Table 4 as equations, every row
#   and language's charge vector held to the simulator's trace and Stats
#   (table4_charges_match_the_trace); and the count gate
#   (table4_counts_agree_on_both_fabrics): every row and extra op on both
#   fabrics, messages, bytes, handlers and creates per op the table's on
#   both, the simulator's switches and sync ops too, and each node's heap
#   allocations exactly the table's on the simulator and the simulator's on
#   LocalFabric (plus at most 20 per run: a new peak of a node's live tasks).
# - mpmd-apps: 20 000 threaded RMIs, EM3D at the paper's size on the wall
#   clock, bit for bit against the reference, and a traced wall-clock run.
# These assert completion and counts, not timings, so none is retried.
host_tests() {
    "$@" test --release -q -p mpmd-sim --lib --test explore --test inbox_waiters \
        --test proptest_engine --test alloc_count
    "$@" test --release -q -p mpmd-fabric --lib --test bounded_tasks --test ring_stress \
        --test alloc_count
    "$@" test --release -q -p mpmd-threads --lib
    "$@" test --release -q -p mpmd-am --test fabric_conformance --test bounded_links
    "$@" test --release -q -p mpmd-splitc --lib --test local_stream_memory
    "$@" test --release -q -p mpmd-ccxx --test call_records --test teardown --test rmi_encoding
    "$@" test --release -q -p mpmd-bench --test trace_observability --test flame_golden
    "$@" test --release -q -p mpmd-bench --lib -- table4_counts_agree_on_both_fabrics \
        table4_charges_match_the_trace
    "$@" test --release -q -p mpmd-apps --test local_scale
}
host_tests cargo
echo "host-dependent tests OK on fibers"

echo "==> benchmark/ builds and runs (standalone crate, quick smoke)"
# benchmark/ is its own workspace, so nothing above compiles it: an API
# change under crates/ could break the acceptance harness unnoticed. The
# quick pass runs all five workloads in a few seconds and exits non-zero on
# any failed operation.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick
echo "benchmark smoke OK"

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
# their committed digests (checked, not rewritten), the explore sweep (its
# alloc probe included) must pass, and so must every host-dependent test.
# Clippy lints this build too: only it compiles sim/src/pool.rs.
no_fibers() {
    CARGO_TARGET_DIR=target/no_fibers RUSTFLAGS="--cfg mpmd_no_fibers" cargo "$@"
}
clippy_all no_fibers
no_fibers build --release -q -p mpmd-bench
tmp=$(mktemp -d)
for bin in table4 fig5 scaling faults msgprofile; do
    target/no_fibers/release/$bin --json "$tmp/$bin.json" >/dev/null
    grep " results/$bin.json\$" results/SHA256SUMS | sed "s| results/| $tmp/|" | sha256sum -c --quiet
done
timeout 60 target/no_fibers/release/explore --quick --json "$tmp/explore.json"
rm -rf "$tmp"
host_tests no_fibers
echo "pooled-thread host reproduces results/, the goldens and the sweep"

echo "==> all checks passed"
