#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting, and a smoke run of
# the machine-readable benchmark output. Nothing is retried: every step is
# deterministic or decides for itself.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> table4 --json smoke test"
# The bin asserts non-empty rows with nonzero totals before it writes.
cargo run --release -p mpmd-bench --bin table4 -- 50 --json results/table4.json >/dev/null
echo "results/table4.json OK"

echo "==> fig5 parallel-runner determinism smoke"
# The parallel experiment runner must produce byte-identical output for any
# worker count; diff a -j $(nproc) run against -j 1 (quick scale).
cargo build --release -p mpmd-bench
./target/release/fig5 --quick -j 1 --json /tmp/ci_fig5_j1.json >/tmp/ci_fig5_j1.out
./target/release/fig5 --quick -j "$(nproc)" --json /tmp/ci_fig5_jn.json >/tmp/ci_fig5_jn.out
cmp /tmp/ci_fig5_j1.json /tmp/ci_fig5_jn.json
cmp /tmp/ci_fig5_j1.out /tmp/ci_fig5_jn.out
rm -f /tmp/ci_fig5_j1.json /tmp/ci_fig5_jn.json /tmp/ci_fig5_j1.out /tmp/ci_fig5_jn.out
echo "fig5 -j1 vs -j$(nproc) identical"

echo "==> sim-path byte-identity gate (repeat runs of the deterministic benches)"
# The Fabric refactor must keep the simulator path bit-exact: every
# deterministic bench emits byte-identical JSON on a repeat run. (fig5 is
# covered by the -j cmp above; faults cmps its own pair below; regress is
# excluded because its report embeds wall-clock fields.)
./target/release/table4 50 --json /tmp/ci_ident_a.json >/dev/null
./target/release/table4 50 --json /tmp/ci_ident_b.json >/dev/null
cmp /tmp/ci_ident_a.json /tmp/ci_ident_b.json
./target/release/msgprofile --quick -j 1 --json /tmp/ci_ident_a.json >/dev/null
./target/release/msgprofile --quick -j 1 --json /tmp/ci_ident_b.json >/dev/null
cmp /tmp/ci_ident_a.json /tmp/ci_ident_b.json
./target/release/ablation 25 --coalescing --json /tmp/ci_ident_a.json >/dev/null
./target/release/ablation 25 --coalescing --json /tmp/ci_ident_b.json >/dev/null
cmp /tmp/ci_ident_a.json /tmp/ci_ident_b.json
rm -f /tmp/ci_ident_a.json /tmp/ci_ident_b.json
echo "table4 / msgprofile / ablation byte-identical across runs"

echo "==> LocalFabric smoke (wall-clock backend: null-RMI + barrier ring)"
# Real-hardware mode: null-RMI on two nodes and a barrier ring on four, each
# node one OS thread running its tasks as fibers, over the per-link rings.
# The binary asserts completion (no lost round trips or barrier rounds) and
# nonzero wall-clock histograms, and checks em3d ghost fields bit-match a
# simulator run of the same parameters.
./target/release/local --rmi-iters 500 --barriers 200 --json /tmp/ci_local.json
rm -f /tmp/ci_local.json
echo "LocalFabric smoke OK"

echo "==> faults smoke test (reliable delivery under a lossy wire)"
# Nonzero fault rates must leave application results bitwise identical to
# the fault-free baseline and produce retransmissions (the binary exits
# nonzero on divergence or when the fault model did not engage), and be
# seed-deterministic: two same-seed runs emit byte-identical JSON.
./target/release/faults --quick --json /tmp/ci_faults_a.json >/tmp/ci_faults_a.out
./target/release/faults --quick --json /tmp/ci_faults_b.json >/tmp/ci_faults_b.out
cmp /tmp/ci_faults_a.json /tmp/ci_faults_b.json
cmp /tmp/ci_faults_a.out /tmp/ci_faults_b.out
rm -f /tmp/ci_faults_a.json /tmp/ci_faults_b.json /tmp/ci_faults_a.out /tmp/ci_faults_b.out
echo "faults smoke + seeded determinism OK"

echo "==> ablation coalescing smoke (em3d on/off)"
# The coalescing axis self-verifies: the binary asserts (and exits nonzero
# otherwise) that with aggregation on, em3d results are bit-identical in
# both runtimes, the wire carries strictly fewer messages (>= 25% fewer
# under Split-C), and net time decreases.
./target/release/ablation 25 --coalescing --json /tmp/ci_ablation_co.json >/dev/null
rm -f /tmp/ci_ablation_co.json
echo "ablation coalescing smoke OK"

echo "==> regress smoke (quick observability suite vs checked-in baseline)"
# The perf-regression gate itself: rerun the quick-scale suite with metrics
# on and diff every gated metric against the committed baseline (loose
# per-metric tolerances; the binary exits nonzero on regression, on an
# empty null-RMI histogram, or on an empty suite). The baseline's null_rmi
# leaves pin the exact virtual round trip.
./target/release/regress --quick --json /tmp/ci_regress.json >/dev/null
rm -f /tmp/ci_regress.json
echo "regress quick gate OK"

echo "==> fabric ring stress + wall-clock zero-alloc + bounded-task + call-record tests"
# The link ring's FIFO/overflow invariants with sender and receiver on two
# threads, the lost-wake-up battery (2 000 frame hand-offs with
# every wait parking at once), and the zero-allocation guarantee of the
# wall-clock short-send path (counting global allocator), in release mode
# where the fast paths are actually taken. Also at full size only in
# release: 50 000 spawn/join pairs and a 5 000-wide task wave on exactly one
# OS thread per node, 20 000 threaded RMIs in one run, and EM3D base in CC++
# at the paper's graph size. One layer up, the RMI's call records: a warm
# null RMI allocates nothing on either node of either fabric, only the task
# that issued a call recycles its record, a failed run frees every record.
# These assert completion and counts, not timings, so none is retried.
cargo test --release -q -p mpmd-fabric --test ring_stress --test alloc_count \
    --test bounded_tasks
cargo test --release -q -p mpmd-ccxx --test alloc_count --test call_records
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
# A counting global allocator brackets 1000 short-message round trips (must
# be exactly 0 heap allocations) and 1000 AM bulk sends (bounded); the bench
# aborts on regression.
cargo bench -p mpmd-bench --bench alloc_count 2>/dev/null | grep '^alloc_count/'
echo "alloc_count bounds OK"

echo "==> clippy: no boxed returns on the fast path"
# The zero-alloc path must not regrow Box-returning APIs in the touched
# crates (sim, am, ccxx/splitc, bench).
cargo clippy -p mpmd-sim -p mpmd-am -p mpmd-ccxx -p mpmd-splitc -p mpmd-bench \
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
# behave the same with every task on a pooled OS thread. The simulator's
# engine: its unit tests (the one Backend::switch, kernel re-entry) and the
# engine-level integration tests, with Auto resolving to the threads backend
# (the exploration assertions compare against threads baselines, so passing
# proves identical output). LocalFabric's node scheduler: its unit tests
# (panic containment, re-entry and borrowed-handle rules, the ring alone),
# the task-table bounds of bounded_tasks, ring_stress (the ring does not
# depend on the baton, the idle loop that reads it does) and the whole
# conformance suite, on which one node's tasks still run one at a time and
# scheduling across nodes still fails the run with the one message. The RMI
# call records: the per-node free list and the rule that only the issuing
# task recycles must hold with every task on its own OS thread too. A
# separate target dir keeps the main cache warm.
no_fibers() {
    CARGO_TARGET_DIR=target/no_fibers RUSTFLAGS="--cfg mpmd_no_fibers" cargo test -q "$@"
}
no_fibers -p mpmd-sim --lib --test explore --test inbox_waiters --test proptest_engine
no_fibers -p mpmd-fabric --lib --test bounded_tasks --test ring_stress
no_fibers -p mpmd-am --test fabric_conformance
no_fibers -p mpmd-ccxx --test alloc_count --test call_records
echo "threads fallback OK"

echo "==> all checks passed"
