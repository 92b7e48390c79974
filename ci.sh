#!/usr/bin/env bash
# Local CI gate: format, lint (warnings are errors), release build, tests,
# and a type-check of the perfbench/ benchmark workspace (which the
# workspace steps never compile, so a deleted or renamed public API it
# uses would otherwise pass). Run from the workspace root before pushing.
#
#   ./ci.sh                # the default gate
#   ./ci.sh --bench-smoke  # gate + compile the Criterion benches + these
#                          # release-mode gates (committed baselines are
#                          # never touched):
#                          # - bench_pairwise and bench_kernels, each
#                          #   diffed against its committed baseline with
#                          #   `adalsh bench diff --smoke`;
#                          # - bench_oracle, the noisy-oracle sweep;
#                          # - streaming_rss, which fails unless
#                          #   streaming store ingest peaks below the
#                          #   materialized in-RAM footprint;
#                          # - the serve read-scaling test, which fails if
#                          #   16 concurrent readers drop below 0.8x the
#                          #   1-reader /topk QPS;
#                          # - bench_spans, which fails if the span layer
#                          #   slows ingest-to-visible past 1.15x, then
#                          #   diffs against its committed baseline;
#                          # - the perfbench/ smoke test, which builds the
#                          #   benchmark in release and runs every
#                          #   workload on tiny inputs.
#                          # (The mapped-vs-RAM identity gate on a streamed
#                          # scale store runs in the default tests.)
set -euo pipefail
cd "$(dirname "$0")"

bench_smoke=0
for arg in "$@"; do
    case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo check perfbench/ (benchmark builds against these crates)"
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> serve smoke"
# Boot the service on an ephemeral port, hit /healthz and /topk over raw
# TCP (bash /dev/tcp: no curl dependency), and shut it down.
serve_smoke() {
    local data log addr pid
    data=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.jsonl)
    log=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.log)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    ./target/release/adalsh serve "$data" --addr 127.0.0.1:0 >"$log" &
    pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN
    # Wait for the bound-address announcement.
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#^listening on http://##p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "serve never announced its address" >&2; cat "$log" >&2; return 1; }
    local host=${addr%:*} port=${addr##*:}

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"status":"ok"' <&3 || { echo "/healthz failed" >&2; return 1; }
    exec 3<&- 3>&-

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /topk?k=2 HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"clusters":' <&3 || { echo "/topk failed" >&2; return 1; }
    exec 3<&- 3>&-

    # Write path: ingest a batch, then a read-your-writes barrier read —
    # the returned visible_epoch plugs straight into ?wait_epoch=.
    local body='{"records":[{"fields":[{"Shingles":[1,2,3,4]}]},{"fields":[{"Shingles":[1,2,3,5]}]}]}'
    exec 3<>"/dev/tcp/$host/$port"
    printf 'POST /ingest HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\n\r\n%s' \
        "${#body}" "$body" >&3
    grep -q '"visible_epoch":1' <&3 || { echo "/ingest missing visible_epoch" >&2; return 1; }
    exec 3<&- 3>&-

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /topk?k=2&wait_epoch=1 HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"epoch":1' <&3 || { echo "read-your-writes barrier failed" >&2; return 1; }
    exec 3<&- 3>&-

    # Short 4-client load burst against the lock-free read path: every
    # response must be a 200 even while clients overlap.
    local c bpid bpids=()
    for c in 1 2 3 4; do
        (
            for _ in $(seq 1 25); do
                exec 4<>"/dev/tcp/$host/$port"
                printf 'GET /topk?k=2 HTTP/1.1\r\nHost: burst\r\n\r\n' >&4
                head -n1 <&4 | grep -q ' 200 ' || exit 1
                exec 4<&- 4>&-
            done
        ) &
        bpids+=("$!")
    done
    for bpid in "${bpids[@]}"; do
        wait "$bpid" || { echo "load burst client failed" >&2; return 1; }
    done

    # The engine's trace events must surface as adalsh_engine_* families
    # on the scrape (the query above emitted at least one hash round).
    local scrape
    scrape=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.metrics)
    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    cat <&3 >"$scrape"
    exec 3<&- 3>&-
    grep -q 'adalsh_engine_hash_round_seconds_bucket' "$scrape" ||
        { echo "/metrics missing engine hash-round histogram" >&2; return 1; }
    grep -q 'adalsh_engine_pairwise_block_seconds_bucket' "$scrape" ||
        { echo "/metrics missing engine pairwise-block histogram" >&2; return 1; }
    grep -q 'adalsh_engine_gate_decisions_total' "$scrape" ||
        { echo "/metrics missing engine gate-decision counter" >&2; return 1; }
    if grep -q 'adalsh_engine_hash_round_seconds_count 0' "$scrape"; then
        echo "engine hash-round histogram never observed a round" >&2
        return 1
    fi
    # The ingest pipeline's queue/epoch families must be on the scrape:
    # the ingest above was applied, so the epoch gauge reads 1, a batch
    # was counted, and the queue has drained back to 0.
    grep -q 'adalsh_ingest_queue_depth 0' "$scrape" ||
        { echo "/metrics missing drained ingest queue gauge" >&2; return 1; }
    grep -q 'adalsh_published_epoch 1' "$scrape" ||
        { echo "/metrics missing published epoch gauge" >&2; return 1; }
    grep -q 'adalsh_applied_batches_total 1' "$scrape" ||
        { echo "/metrics missing applied-batches counter" >&2; return 1; }
    grep -q 'adalsh_resolve_batch_records_bucket' "$scrape" ||
        { echo "/metrics missing batch-size histogram" >&2; return 1; }
    grep -q 'adalsh_publish_seconds_bucket' "$scrape" ||
        { echo "/metrics missing publish-latency histogram" >&2; return 1; }
    # The ingest pass resolved clusters the boot pass already sent through
    # P and H_t, so both memo reuse counters are listed and have counted
    # them.
    grep -q 'adalsh_pairwise_reused_total [1-9]' "$scrape" ||
        { echo "/metrics missing a nonzero P memo reuse counter" >&2; return 1; }
    grep -q 'adalsh_transitive_reused_total [1-9]' "$scrape" ||
        { echo "/metrics missing a nonzero H memo reuse counter" >&2; return 1; }
    # Both passes inserted bucket-table keys: the boot pass all of them,
    # the ingest pass only the new records'.
    grep -q 'adalsh_bucket_inserts_total [1-9]' "$scrape" ||
        { echo "/metrics missing a nonzero bucket-insert counter" >&2; return 1; }
    rm -f "$scrape"

    # Clean shutdown.
    kill "$pid"
    wait "$pid" 2>/dev/null || true
    rm -f "$data" "$log"
}
serve_smoke

echo "==> trace smoke"
# Run the adaptive filter with --trace-out and check the emitted JSONL
# validates (taxonomy + trace↔Stats reconciliation), summarizes, and
# attributes its span tree down to the engine-derived children.
trace_smoke() {
    local data trace out
    data=$(mktemp /tmp/adalsh-trace-smoke-XXXXXX.jsonl)
    trace=$(mktemp /tmp/adalsh-trace-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    ./target/release/adalsh filter "$data" --k 3 --rule jaccard:0.6 \
        --trace-out "$trace" >/dev/null
    ./target/release/adalsh trace validate "$trace" | grep -q 'OK' ||
        { echo "trace validate failed" >&2; return 1; }
    ./target/release/adalsh trace summarize "$trace" | grep -q 'H1' ||
        { echo "trace summarize missing level table" >&2; return 1; }
    out=$(./target/release/adalsh trace attribute "$trace")
    grep -q 'hash_rounds' <<<"$out" ||
        { echo "trace attribute lost the engine-derived hash_rounds phase" >&2; return 1; }
    rm -f "$data" "$trace"
}
trace_smoke

echo "==> oracle chaos smoke"
# Run the filter through the fault-injected noisy oracle at a fixed seed
# with a budget tight enough to force graceful degradation. The run must
# exit 0 (degradation, never abort), report its spend, and the emitted
# trace must validate — the schema validator reconciles Σ per-call
# oracle spend against the run_end ledger mirror bit-for-bit.
oracle_smoke() {
    local data trace out
    data=$(mktemp /tmp/adalsh-oracle-smoke-XXXXXX.jsonl)
    trace=$(mktemp /tmp/adalsh-oracle-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    out=$(./target/release/adalsh filter "$data" --k 3 --rule jaccard:0.6 \
        --oracle noisy --oracle-fp 0.05 --oracle-fn 0.05 --oracle-fault 0.2 \
        --oracle-seed 7 --oracle-budget 500 --trace-out "$trace") ||
        { echo "noisy-oracle filter did not degrade gracefully" >&2; return 1; }
    echo "$out" | grep -q 'oracle:' ||
        { echo "filter output missing the oracle spend summary" >&2; return 1; }
    echo "$out" | grep -q 'degraded' ||
        { echo "filter output missing degradation counts" >&2; return 1; }
    ./target/release/adalsh trace validate "$trace" | grep -q 'OK' ||
        { echo "oracle trace validate failed" >&2; return 1; }
    out=$(./target/release/adalsh trace summarize "$trace")
    grep -q '^oracle: ' <<<"$out" ||
        { echo "oracle trace summarize missing the oracle line" >&2; return 1; }
    rm -f "$data" "$trace"
}
oracle_smoke

echo "==> scale store smoke"
# Stream the scale generator into a store file, resolve directly off the
# memory mapping (no positional dataset), and validate the emitted trace
# — which also checks the run_start event reports source=store.
scale_smoke() {
    # grep on captured output, not on a live pipe: `grep -q` would close
    # the pipe at first match and SIGPIPE the tool under pipefail.
    local store trace out
    store=$(mktemp /tmp/adalsh-scale-smoke-XXXXXX.store)
    trace=$(mktemp /tmp/adalsh-scale-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh datagen --out "$store" --records 10000 --seed 7 >/dev/null
    ./target/release/adalsh filter --store "$store" --k 5 --rule jaccard:0.4 \
        --trace-out "$trace" >/dev/null
    grep -q '"source":"store"' "$trace" ||
        { echo "trace run_start does not report source=store" >&2; return 1; }
    # The store-backed run must carry its filter_run span tree (design +
    # resolve phases with the engine-derived children) in the same file,
    # and the validator must accept the tree's containment invariants.
    grep -q '"ev":"span"' "$trace" ||
        { echo "store-path trace carries no span events" >&2; return 1; }
    grep -q '"op":"filter_run"' "$trace" ||
        { echo "store-path trace missing the filter_run root span" >&2; return 1; }
    out=$(./target/release/adalsh trace validate "$trace")
    grep -q 'OK' <<<"$out" ||
        { echo "store-path trace validate failed" >&2; return 1; }
    out=$(./target/release/adalsh trace attribute "$trace")
    grep -q 'filter_run' <<<"$out" ||
        { echo "trace attribute lost the filter_run phase breakdown" >&2; return 1; }
    out=$(./target/release/adalsh evaluate --store "$store" --k 5 --rule jaccard:0.4)
    grep -q 'recall gold:       1.0000' <<<"$out" ||
        { echo "store-path evaluate lost gold recall" >&2; return 1; }
    rm -f "$store" "$trace"
}
scale_smoke

if [ "$bench_smoke" = 1 ]; then
    echo "==> cargo bench --no-run (compile gate)"
    cargo bench --workspace --no-run --quiet

    echo "==> bench_pairwise --smoke (regression gate)"
    # The smoke size is one of the committed baseline's, so the fresh
    # timings diff against it key by key.
    pairwise_fresh=$(mktemp /tmp/adalsh-bench-pairwise-XXXXXX.json)
    cargo run --release -p adalsh-bench --bin bench_pairwise -- --smoke --out "$pairwise_fresh"
    ./target/release/adalsh bench diff "$pairwise_fresh" BENCH_pairwise.json --smoke
    rm -f "$pairwise_fresh"

    echo "==> bench_kernels --smoke (regression gate)"
    # Width 128 is one of the committed baseline's widths, so the fresh
    # throughputs diff against it key by key.
    kernels_fresh=$(mktemp /tmp/adalsh-bench-kernels-XXXXXX.json)
    cargo run --release -p adalsh-bench --bin bench_kernels -- --smoke --out "$kernels_fresh"
    ./target/release/adalsh bench diff "$kernels_fresh" BENCH_kernels.json --smoke
    rm -f "$kernels_fresh"

    echo "==> bench_oracle --smoke (noisy-oracle robustness sweep)"
    cargo run --release -p adalsh-bench --bin bench_oracle -- --smoke

    echo "==> streaming_rss (out-of-core gate)"
    # Fails unless streaming ingest of a 10^4-record scale store peaks
    # below the footprint of the same records materialized in RAM.
    cargo test --release -p adalsh-store --test streaming_rss -- --ignored

    echo "==> serve read scaling (16 vs 1 reader gate)"
    # Fails unless the pipelined server's 16-client /topk QPS holds at
    # least 0.8x its 1-client QPS.
    cargo test --release -p adalsh-serve --test serve -- --ignored

    echo "==> bench_spans --smoke (span-overhead + regression gate)"
    # Fails if the span layer slows ingest-to-visible past 1.15x, then
    # diffs the fresh numbers against the committed baseline — smoke
    # mode tolerates warn-level (1.3x) noise but fails past 3x.
    spans_fresh=$(mktemp /tmp/adalsh-bench-spans-XXXXXX.json)
    cargo run --release -p adalsh-bench --bin bench_spans -- --smoke --out "$spans_fresh"
    ./target/release/adalsh bench diff "$spans_fresh" BENCH_spans.json --smoke
    rm -f "$spans_fresh"

    echo "==> perfbench smoke (benchmark build + output contract)"
    # The default gate only type-checks perfbench/; this builds it in
    # release against the current crates and checks every workload's
    # output.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

echo "CI OK"
