#!/usr/bin/env bash
# Tier-1 gate. The workspace has zero third-party dependencies, so
# everything runs with --offline against an empty registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --offline --all-targets -- -D warnings =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors: stale intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== rtped-lint (token/use-graph analyzer + suppression ratchet vs LINT_BASELINE.json) =="
cargo build --release --offline -p rtped-lint
lint_a=$(mktemp)
lint_b=$(mktemp)
./target/release/rtped-lint --check-baseline LINT_BASELINE.json >"$lint_a"

echo "== rtped-lint determinism (report byte-identical across runs and RTPED_THREADS) =="
RTPED_THREADS=1 ./target/release/rtped-lint >"$lint_b" 2>/dev/null
if ! diff -q "$lint_a" "$lint_b" >/dev/null; then
    echo "rtped-lint: report differs between runs (RTPED_THREADS=1)" >&2
    diff "$lint_a" "$lint_b" >&2 || true
    exit 1
fi
RTPED_THREADS=4 ./target/release/rtped-lint >"$lint_b" 2>/dev/null
if ! diff -q "$lint_a" "$lint_b" >/dev/null; then
    echo "rtped-lint: report differs across RTPED_THREADS=1 vs 4" >&2
    diff "$lint_a" "$lint_b" >&2 || true
    exit 1
fi
rm -f "$lint_a" "$lint_b"

echo "== rtped-lint --self-check (the analyzer lints itself) =="
./target/release/rtped-lint --self-check >/dev/null

echo "== rtped-lint self-test (bad fixture corpus must fail the gate, report must match the golden) =="
lint_bad=$(mktemp)
if ./target/release/rtped-lint \
    crates/lint/tests/fixtures/bad >"$lint_bad" 2>/dev/null; then
    echo "rtped-lint: bad fixture corpus unexpectedly passed" >&2
    exit 1
fi
if ! diff -q crates/lint/tests/fixtures/bad.report.json "$lint_bad" >/dev/null; then
    echo "rtped-lint: bad-corpus report differs from crates/lint/tests/fixtures/bad.report.json" >&2
    diff crates/lint/tests/fixtures/bad.report.json "$lint_bad" >&2 || true
    exit 1
fi
rm -f "$lint_bad"

echo "== cargo build --release --offline (all targets) =="
cargo build --workspace --all-targets --release --offline

echo "== cargo test -q --offline =="
cargo test --workspace -q --offline

echo "== rtped-hog tests with optimisation on (par::wide == plain-body properties see the vectorised codegen) =="
cargo test --release -q --offline -p rtped-hog

echo "== dasbench: its own tests, then a short parked_720p run that must report correct:true =="
cargo test --release --offline --manifest-path dasbench/Cargo.toml
das_result=$(bash dasbench/run.sh --workload parked_720p --seed 1 --seconds 3 --trace 0 | tail -n 1)
if ! grep -q '"correct":true' <<<"$das_result"; then
    echo "dasbench: parked_720p run is not correct (served i16 path vs stateless detections and the recorded canary)" >&2
    echo "$das_result" >&2
    exit 1
fi

echo "== miri (best-effort: UB check of the par tests, which reach wide's AVX2 trampoline, + wire framing) =="
if cargo +nightly miri --version >/dev/null 2>&1; then
    # Hard gate when available: any UB report fails CI.
    cargo +nightly miri test --offline -p rtped-core --lib -- par:: wire::
else
    echo "miri: NOT AVAILABLE in this toolchain — SKIPPING UB verification." >&2
    echo "miri: install with \`rustup component add --toolchain nightly miri\` to enable." >&2
fi

echo "== bench_detect --quick (smoke: determinism gates + 15% regression gate vs BENCH_thresholds.json) =="
cargo run --release --offline -p rtped-bench --bin bench_detect -- --quick --gate BENCH_thresholds.json

echo "== video_stream fault-injection smoke (seed 2017: zero crashes, non-empty RunReport, stdout matches the committed run) =="
smoke=$(RTPED_FAULT_SEED=2017 cargo run --release --offline --example video_stream)
grep -q '"seed":2017' <<<"$smoke"
grep -q 'video_stream: ok (seed 2017, zero crashes)' <<<"$smoke"
diff - results_video_stream.txt <<<"$smoke"

echo "== soft_error_smoke (fixed seed: ECC corrects, zero silent escapes, integrity block present) =="
ecc_smoke=$(cargo run --release --offline --example soft_error_smoke)
grep -q '"integrity":{' <<<"$ecc_smoke"
grep -q 'soft_error_smoke: ok' <<<"$ecc_smoke"
diff - results_soft_error_smoke.txt <<<"$ecc_smoke"

echo "== shard_failover_smoke (seed 2017 storm on a 4-shard fleet: quarantine, bit-identical failover, zero escapes) =="
shard_smoke=$(cargo run --release --offline --example shard_failover_smoke)
grep -q '"shards":{' <<<"$shard_smoke"
grep -q 'shard_failover_smoke: ok' <<<"$shard_smoke"
diff - results_shard_failover_smoke.txt <<<"$shard_smoke"

echo "== rtped-serve smoke (daemon on ephemeral port, load generator, clean shutdown) =="
cargo build --release --offline -p rtped-serve -p rtped-bench --bin rtped-serve --bin bench_serve
serve_log=$(mktemp)
serve_journal=$(mktemp -u)
./target/release/rtped-serve --addr 127.0.0.1:0 --workers 4 \
    --journal "$serve_journal" >"$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 50); do
    serve_addr=$(sed -n 's/^rtped-serve: listening on //p' "$serve_log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "rtped-serve: daemon never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/bench_serve --quick --connect "$serve_addr" --shutdown
wait "$serve_pid"
grep -q 'rtped-serve: shutdown complete' "$serve_log"
grep -q '"format": 1' BENCH_serve.quick.json
grep -q '"bench": "serve"' BENCH_serve.quick.json
grep -q '"shed_rate"' BENCH_serve.quick.json
rm -f "$serve_log" "$serve_journal"

echo "== rtped-fleet --quick (campaign + chaos smoke, byte-identical across RTPED_THREADS and to the committed artifact) =="
cargo build --release --offline -p rtped-fleet
fleet_a=$(mktemp)
fleet_b=$(mktemp)
fleet_log=$(mktemp)
RTPED_THREADS=1 ./target/release/rtped-fleet --quick --out "$fleet_a" >"$fleet_log"
grep -q 'rtped-fleet: campaign ok' "$fleet_log"
grep -q '0 integrity escapes' "$fleet_log"
grep -Eq '[1-9][0-9]* shard quarantines' "$fleet_log"
grep -q 'rtped-fleet: chaos ok (0 divergences' "$fleet_log"
diff "$fleet_a" results_fleet.quick.json
RTPED_THREADS=4 ./target/release/rtped-fleet --quick --out "$fleet_b" >/dev/null
if ! diff -q "$fleet_a" "$fleet_b" >/dev/null; then
    echo "rtped-fleet: quick artifacts differ across RTPED_THREADS=1 vs 4" >&2
    diff "$fleet_a" "$fleet_b" >&2 || true
    exit 1
fi
grep -q '"quick": true' "$fleet_a"
rm -f "$fleet_a" "$fleet_b" "$fleet_log"

echo "== BENCH_fleet.json (committed full-campaign artifact: schema + invariants) =="
grep -q '"format": 1' BENCH_fleet.json
grep -q '"bench": "fleet"' BENCH_fleet.json
grep -q '"quick": false' BENCH_fleet.json
grep -q '"runs": 2016' BENCH_fleet.json
grep -q '"digest"' BENCH_fleet.json
grep -q '"post_recovery_identical": true' BENCH_fleet.json
grep -q '"shard_quarantines"' BENCH_fleet.json
if grep -E '"(integrity_escapes|divergences|daemon_panics|client_hangs|protocol_violations|retry_exhausted)": [^0]' BENCH_fleet.json; then
    echo "BENCH_fleet.json: a must-be-zero invariant is nonzero" >&2
    exit 1
fi

echo "== results_table2.txt regen check (committed table matches the cost model) =="
cargo run --release --offline -p rtped-bench --bin table2 | diff - results_table2.txt

echo "== results_throughput.txt regen check (the 1,200,420-cycle HDTV schedule is byte-stable) =="
cargo run --release --offline -p rtped-bench --bin throughput 2>/dev/null | diff - results_throughput.txt

echo "== accuracy quick-run regen checks (extraction, resampling and renormalization are byte-stable) =="
# crossover has no quick mode; its small-count run below is the quick
# artifact.
for bin in table1 figure4 ablation_norm ablation_quantization scene_ap; do
    RTPED_QUICK=1 cargo run --release --offline -p rtped-bench --bin "$bin" 2>/dev/null \
        | diff - "results_$bin.quick.txt"
done
RTPED_COUNTS=60,180,30,120 RTPED_NOISE=12 \
    cargo run --release --offline -p rtped-bench --bin crossover 2>/dev/null \
    | diff - results_crossover.quick.txt

echo "== experiment-level parallel == serial (quick accuracy runs byte-identical at RTPED_THREADS=1 and 3) =="
for threads in 1 3; do
    for bin in figure4 ablation_norm ablation_quantization; do
        RTPED_THREADS=$threads RTPED_QUICK=1 ./target/release/"$bin" 2>/dev/null \
            | diff - "results_$bin.quick.txt"
    done
done

echo "== BENCH_hw_shard.json regen check (cycle model is byte-stable) =="
shard_baseline=$(mktemp)
cp BENCH_hw_shard.json "$shard_baseline"
cargo run --release --offline -p rtped-bench --bin hw_shard >/dev/null
if ! diff -q "$shard_baseline" BENCH_hw_shard.json >/dev/null; then
    echo "BENCH_hw_shard.json: regenerated baseline differs from the committed one" >&2
    diff "$shard_baseline" BENCH_hw_shard.json >&2 || true
    exit 1
fi
grep -q '"bench": "hw_shard"' BENCH_hw_shard.json
grep -q '"budget_cycles_60fps": 2083333' BENCH_hw_shard.json
grep -q '"meets_60fps": true' BENCH_hw_shard.json
rm -f "$shard_baseline"

echo "ci.sh: all green"
