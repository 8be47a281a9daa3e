#!/usr/bin/env sh
# Tier-1 gate for the hermetic workspace. Everything here must pass with
# no network access: the workspace has zero registry dependencies, so
# --offline is exact, not best-effort.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The benchmark package lives outside the workspace; building and testing
# it here makes an engine API change that breaks it fail the gate.
echo "==> perfbench: cargo build --release --offline"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench: cargo test -q --offline"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The benchmark's own end-to-end gate: committed seed-1 checksums, the
# sweep's edge instances against standalone runs, paced == free-running.
echo "==> perfbench: one-second seed-1 run of every workload"
for workload in fig2-loop sweep-k64 reactive-sport; do
    bench_out="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$bench_out" in
        '{"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "perfbench $workload failed its end-to-end gate: $bench_out" >&2
            exit 1
            ;;
    esac
done

# The traced paths call `Controller::inject`/`run_until` and
# `StreamerBehavior::take_emitted` directly, so they gate the SPort round
# trip outside the engine: four supervisors answer one status each per step.
echo "==> perfbench: one-second traced seed-1 run of reactive-sport"
traced_out="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload reactive-sport --seed 1 --seconds 1 --trace 1 | tail -n 1)"
case "$traced_out" in
    '{"correct": true,'*'"failed": 0,'*'"controller.delivered_per_step": {"value": 4,'*) ;;
    *)
        echo "perfbench reactive-sport failed its traced gate: $traced_out" >&2
        exit 1
        ;;
esac

# The traced paths of fig2-loop and sweep-k64 step the instantiated
# networks directly (`StreamerNetwork::initialize`/`step`), the only
# caller of the network's K = 1 plan walk outside the tests.
for workload in fig2-loop sweep-k64; do
    echo "==> perfbench: one-second traced seed-1 run of $workload"
    traced_out="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
    case "$traced_out" in
        '{"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "perfbench $workload failed its traced gate: $traced_out" >&2
            exit 1
            ;;
    esac
done

echo "==> scripts/loc.sh HEAD (net Rust line change; output shape only)"
loc_out="$(scripts/loc.sh HEAD)"
if ! printf '%s\n' "$loc_out" | awk '
    NR == 1 && /^non-test [+-][0-9]+$/ { a = 1 }
    NR == 2 && /^test [+-][0-9]+$/ { b = 1 }
    END { exit !(a && b && NR == 2) }'; then
    echo "unexpected scripts/loc.sh output: $loc_out" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# A doc link to a renamed or deleted item fails here, not in a reader's browser;
# crate-private docs are link-checked too.
echo "==> cargo doc --offline --workspace --no-deps --document-private-items (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --document-private-items

echo "==> urt-lint --json smoke"
lint_json="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --json demo)"
case "$lint_json" in
    '[{"model":"demo","errors":0,'*) ;;
    *)
        echo "unexpected urt-lint --json output: $lint_json" >&2
        exit 1
        ;;
esac
# The seeded negative models must fail linting even under the stricter
# --deny-warnings contract (they all carry at least one error anyway).
for seeded in seeded-violations seeded-cross-loop seeded-over-budget; do
    if cargo run -q --offline -p urt-analysis --bin urt-lint -- --deny-warnings "$seeded" >/dev/null 2>&1; then
        echo "urt-lint --deny-warnings should exit non-zero on $seeded" >&2
        exit 1
    fi
done

echo "==> lint snapshots (urt-lint --json vs results/lint_snapshots/)"
for name in $(cargo run -q --offline -p urt-analysis --bin urt-lint -- --list); do
    snapshot="results/lint_snapshots/$name.json"
    out="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --json "$name")" || true
    if ! printf '%s\n' "$out" | diff -u "$snapshot" - >&2; then
        echo "lint snapshot drift for $name — after an intentional analyzer change, regenerate with:" >&2
        echo "  cargo run -p urt-analysis --bin urt-lint -- --json $name > $snapshot" >&2
        exit 1
    fi
done

# Reports that print no wall times must reproduce their committed output
# byte for byte (report_e1/e2/e4/ablation time things, so they stay out).
echo "==> deterministic reports vs results/"
for report in fig1 fig2 fig3 table1 e3 e5; do
    committed="results/report_$report.txt"
    out="$(cargo run -q --release --offline -p urt-bench --bin "report_$report")"
    if ! printf '%s\n' "$out" | diff -u "$committed" - >&2; then
        echo "report drift for report_$report — after an intentional change, regenerate with:" >&2
        echo "  cargo run --release -p urt-bench --bin report_$report > $committed" >&2
        exit 1
    fi
done

echo "==> urt-elab-smoke (model -> analyze -> compile -> run, + K=8 ensemble replay)"
elab_out="$(cargo run -q --offline -p urt-analysis --bin urt-elab-smoke)"
case "$elab_out" in
    *'urt-elab-smoke: PASS') ;;
    *)
        echo "unexpected urt-elab-smoke output: $elab_out" >&2
        exit 1
        ;;
esac

echo "==> urt-lint --hash (stable content hashes, human + JSON shapes)"
hash_out="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --hash fig2)"
case "$hash_out" in
    '0x'*'  fig2') ;;
    *)
        echo "unexpected urt-lint --hash output: $hash_out" >&2
        exit 1
        ;;
esac
hash_json="$(cargo run -q --offline -p urt-analysis --bin urt-lint -- --hash --json fig2)"
case "$hash_json" in
    '[{"model":"fig2","content_hash":"0x'*'"}]') ;;
    *)
        echo "unexpected urt-lint --hash --json output: $hash_json" >&2
        exit 1
        ;;
esac

echo "==> bench_engine --smoke (self-asserts batched, ensemble, kernel and instantiate throughput)"
bench_json="$(cargo run -q --release --offline -p urt-bench --bin bench_engine -- --smoke)"
case "$bench_json" in
    '{"schema":"bench_engine/v8","smoke":true,'*'"batch":'*'"steps_per_sec":'*'"ensemble":['*'"mode":"ensemble"'*'"mode":"independent"'*'"kernel":['*'"kernel":"scalar"'*'"kernel":"batched"'*'"instantiate":['*'"instantiate_per_sec":'*'"speedup":'*) ;;
    *)
        echo "unexpected bench_engine --smoke output: $bench_json" >&2
        exit 1
        ;;
esac

echo "==> bench_engine --paced --smoke (paced latency axis, self-asserts misses == 0)"
paced_json="$(cargo run -q --release --offline -p urt-bench --bin bench_engine -- --paced --smoke)"
# Shape: the paced array must carry the latency distribution fields.
case "$paced_json" in
    '{"schema":"bench_engine/v8","smoke":true,'*'"paced":['*'"p50_ns":'*'"p99_ns":'*'"worst_ns":'*'"misses":'*) ;;
    *)
        echo "unexpected bench_engine --paced --smoke output: $paced_json" >&2
        exit 1
        ;;
esac
# The binary exits non-zero on any miss; belt-and-braces, the JSON must
# not report one either (the budget is generous by design).
case "$paced_json" in
    *'"misses":'[1-9]*)
        echo "paced smoke run reported deadline misses: $paced_json" >&2
        exit 1
        ;;
esac

echo "OK"
