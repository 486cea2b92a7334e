#!/usr/bin/env sh
# Local CI gate: formatting, lints, tests. Run from the repository root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (adassure* packages, warnings are errors, so no dangling doc link) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p 'adassure*'

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== committed results regenerate byte-identical (fig1, table5 smoke slice, table1) =="
# Every harness is bit-deterministic per seed, so any diff in results/ is
# a change in checker, simulator or diagnosis semantics.
cargo run --release -q -p adassure-bench --bin fig1_attack_anatomy > target/ci_fig1.txt
cargo run --release -q -p adassure-bench --bin table5_robustness -- --smoke
cargo run --release -q -p adassure-bench --bin table1_detection_matrix > target/ci_table1.txt
git diff --exit-code --stat results/

echo "== observability differential (JSONL vs NullSink, bit-identical reports) =="
cargo test -q -p adassure-exp --test obs_differential

echo "== lane engine differential (scalar vs lane-batched, bit-identical) =="
cargo test -q -p adassure-core --test proptests lane_batched

echo "== columnar pipeline differential (CSV -> .adt -> lane check) =="
cargo test -q -p adassure-exp --test columnar_differential

echo "== trace-import smoke (CSV corpus -> .adt, verified round trip) =="
rm -rf target/ci_adt && mkdir -p target/ci_adt
cargo run --release -q -p adassure-trace --bin trace-import -- \
    --verify --out target/ci_adt crates/trace/testdata/smoke.csv
# The CLI's save path must write the committed golden image byte for byte.
cmp target/ci_adt/smoke.adt crates/trace/testdata/smoke.adt

echo "== observability smoke: obs_dump event log + jsonl_check validation =="
ADASSURE_OBS=1 ADASSURE_OBS_PATH=target/ci_events.jsonl \
    cargo run --release -q -p adassure-bench --bin obs_dump -- --smoke \
    > target/ci_obs_prometheus.txt
cargo run --release -q -p adassure-bench --bin jsonl_check -- target/ci_events.jsonl

echo "== fleet differential (sharded vs serial, bit-identical for any layout) =="
cargo test -q -p adassure-fleet --test differential

echo "== fleet soak smoke (10k+ concurrent streams on the sharded checker) =="
cargo run --release -q -p adassure-bench --bin fleet_soak -- \
    --smoke --out target/ci_fleet_soak.json

echo "== monitor-server smoke (one Prometheus page, one per-cycle latency series) =="
page=target/ci_monitor_page.txt
cargo run --release -q -p adassure-fleet --bin monitor-server -- \
    --once --streams 64 --ticks 50 > "$page"
for series in adassure_eval_cycle_ns_count adassure_fleet_open_streams; do
    grep -q "^$series " "$page" || { echo "monitor-server page lacks $series"; exit 1; }
done
if grep -q adassure_fleet_cycle_latency_ns "$page"; then
    echo "monitor-server page exports the duplicate adassure_fleet_cycle_latency_ns"
    exit 1
fi

echo "== ingest differential (loopback wire vs in-process, bit-identical) =="
cargo test -q -p adassure-fleet --test ingest_differential

echo "== wire robustness (truncation/corruption/disconnect: typed, counted, no panics) =="
cargo test -q -p adassure-fleet --test wire_robustness

echo "== network ingest soak smoke (loopback TCP, zero lost samples) =="
cargo run --release -q -p adassure-bench --bin net_soak -- \
    --smoke --out target/ci_net_soak.json

echo "== wire framing properties and golden ADWIRE frames (testdata/frames.adwire) =="
cargo test -q -p adassure-fleet --test wire_props

echo "== checkpoint properties (restore continues bit-identically, any split) =="
cargo test -q -p adassure-fleet --test checkpoint_props

echo "== crash resilience (seeded cuts, checkpointed restart, connection cap) =="
cargo test -q -p adassure-fleet --test resilience

echo "== chaos soak smoke (faulted sockets + server crash, byte-identical) =="
cargo run --release -q -p adassure-bench --bin chaos_soak -- \
    --smoke --out target/ci_chaos_soak.json

echo "== debug replay (bit-identical time travel + checkpoint resume) =="
cargo test -q -p adassure-debug --test replay

echo "== minimizer property (reproduces at stamped cycle, 1-minimal) =="
cargo test -q -p adassure-debug --test minimize_prop

echo "== debug smoke (seeded replay-to-cycle + minimize -> rerun round trip) =="
cargo run --release -q -p adassure-debug --bin addebug -- replay \
    --scenario straight --seed 1 --attack gnss_bias --cycle 1234 \
    > target/ci_addebug_replay.txt
cargo run --release -q -p adassure-debug --bin addebug -- minimize \
    --scenario straight --seed 1 --attack gnss_bias --max-runs 40 \
    --out target/ci_repro.json
cargo run --release -q -p adassure-debug --bin addebug -- rerun target/ci_repro.json

echo "== F3 overhead (observability leaves violations unchanged on a simulated drive) =="
cargo run --release -q -p adassure-bench --bin fig3_overhead > target/ci_fig3.txt

echo "== perfbench build and unit tests (its own workspace; BENCHMARK.json runs it) =="
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench fmt and clippy (its own workspace, so the lints above skip it) =="
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --locked --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== perfbench smoke (offline oracle, and oracle and exactly-once checks on both ingest workloads) =="
# offline_adt checks lane reports from decoded .adt files against scalar
# checker::check, byte for byte, untraced and traced: the traced passes
# read and decode each file separately under spans, the path the per-layer
# lane-check and read figures come from. The bulk run needs 100 ops for
# its p90; at 6 s a host that stole CPU left it 74, so it runs 12 s.
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload offline_adt --seconds 2 --trace 0
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload offline_adt --seconds 2 --trace 1
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload ingest_trips --seconds 2 --trace 0
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload ingest_bulk --seconds 12 --trace 0

echo "CI OK"
