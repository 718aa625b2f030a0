#!/usr/bin/env bash
# The full local CI gate. Run from the repository root:
#
#   scripts/ci.sh
#
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (default features)"
cargo test --workspace -q

echo "==> cargo test (optimized build: sandbox timing and checkpoint bytes)"
cargo test --release -p snake-bench --test executor --test checkpoint -q

echo "==> cargo test (audit feature)"
cargo test -p snake-sim --features audit -q

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> shellcheck (scripts/*.sh)"
# Static-check the shell entry points when the linter is available;
# the container image does not ship it, so absence is not a failure.
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh
else
    echo "    shellcheck not installed, skipping"
fi

echo "==> trace-overhead guard (observability disabled must stay free)"
# First run on a machine records the baseline; later runs fail if the
# path with tracing *and* host profiling compiled in but disabled got
# >2% slower (beyond the measured noise band) — the observatory's
# no-observer-effect guard. Delete the file to re-baseline.
./target/release/pfdebug --overhead-guard target/trace-overhead-baseline.txt lps snake

echo "==> chaos-sweep smoke (supervisor: interrupt + resume, byte-identical)"
# A time-bounded supervised sweep with the canned fault plan injected:
# run it to completion, then again with a forced mid-sweep stop
# (deterministic stand-in for a kill), then resume from the manifest.
# The resumed report must be byte-identical to the uninterrupted one,
# and the interrupted run must use its distinct exit code (4).
SWEEP_DIR=$(mktemp -d)
trap 'kill "${SNAKED_PID:-}" 2>/dev/null || true; rm -rf "$SWEEP_DIR"' EXIT
SWEEP_FLAGS=(--sweep --quick --chaos --budget 400000
             --benchmarks LPS,CP --mechanisms baseline,snake)
./target/release/repro "${SWEEP_FLAGS[@]}" \
    --manifest "$SWEEP_DIR/full.jsonl" --out "$SWEEP_DIR/full.md"
rc=0
./target/release/repro "${SWEEP_FLAGS[@]}" --stop-after 2 \
    --manifest "$SWEEP_DIR/part.jsonl" --out "$SWEEP_DIR/part.md" || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "chaos-sweep smoke: interrupted sweep must exit 4, got $rc" >&2
    exit 1
fi
./target/release/repro "${SWEEP_FLAGS[@]}" \
    --resume "$SWEEP_DIR/part.jsonl" --out "$SWEEP_DIR/resumed.md"
if ! cmp -s "$SWEEP_DIR/full.md" "$SWEEP_DIR/resumed.md"; then
    echo "chaos-sweep smoke: resumed report differs from the uninterrupted run" >&2
    diff "$SWEEP_DIR/full.md" "$SWEEP_DIR/resumed.md" >&2 || true
    exit 1
fi

echo "==> kill-anywhere smoke (checkpoint mid-run, restore, byte-identical outcome)"
# Kill a memory-bound benchmark at a pseudo-random cycle, restore from
# the checkpoint in a fresh process, and require the restored run's
# SimOutcome artifact to be byte-identical to the uninterrupted one.
# The kill cycle is derived from the PID and echoed so a failure is
# reproducible; a mismatched restore must use the distinct exit code 6.
KILL_CYCLE=$((500 + $$ % 2000))
echo "    kill cycle: $KILL_CYCLE (reproduce with --checkpoint-at $KILL_CYCLE)"
./target/release/pfdebug lib snake \
    --outcome-out "$SWEEP_DIR/uninterrupted.outcome"
./target/release/pfdebug lib snake --checkpoint-at "$KILL_CYCLE" \
    --checkpoint-out "$SWEEP_DIR/kill.ckpt" --outcome-out /dev/null
./target/release/pfdebug lib snake --restore "$SWEEP_DIR/kill.ckpt" \
    --outcome-out "$SWEEP_DIR/restored.outcome"
if ! cmp -s "$SWEEP_DIR/uninterrupted.outcome" "$SWEEP_DIR/restored.outcome"; then
    echo "kill-anywhere smoke: restored outcome differs from the uninterrupted run" >&2
    ./target/release/pfdebug lib snake --checkpoint-at $((KILL_CYCLE + 32)) \
        --checkpoint-out "$SWEEP_DIR/kill2.ckpt" --outcome-out /dev/null
    ./target/release/pfdebug lib snake --diverge "$SWEEP_DIR/kill.ckpt" "$SWEEP_DIR/kill2.ckpt" >&2 || true
    exit 1
fi
rc=0
./target/release/pfdebug lib mta --restore "$SWEEP_DIR/kill.ckpt" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 6 ]; then
    echo "kill-anywhere smoke: mismatched restore must exit 6, got $rc" >&2
    exit 1
fi
# Note: checkpointing-off overhead is covered by the trace-overhead
# guard above (the no-cadence path is exactly Gpu::run) and by the
# checkpointing_off_is_exactly_run test in crates/bench.

echo "==> suspend-resume smoke (supervisor: deadline preemption, no quarantine)"
# A sweep whose jobs all hit the suspend trigger must exit 4 with the
# per-job checkpoints durable next to the manifest; resuming restores
# them mid-simulation and renders byte-identically to an uninterrupted
# sweep, with nothing quarantined.
SUS_FLAGS=(--sweep --quick --benchmarks LIB --mechanisms snake,mta)
./target/release/repro "${SUS_FLAGS[@]}" \
    --manifest "$SWEEP_DIR/sus-full.jsonl" --out "$SWEEP_DIR/sus-full.md"
rc=0
./target/release/repro "${SUS_FLAGS[@]}" --suspend-after 300 \
    --manifest "$SWEEP_DIR/sus.jsonl" --out "$SWEEP_DIR/sus-part.md" || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "suspend-resume smoke: suspended sweep must exit 4, got $rc" >&2
    exit 1
fi
ls "$SWEEP_DIR"/sus.jsonl.*.ckpt >/dev/null
./target/release/repro "${SUS_FLAGS[@]}" \
    --resume "$SWEEP_DIR/sus.jsonl" --out "$SWEEP_DIR/sus-resumed.md"
if ! cmp -s "$SWEEP_DIR/sus-full.md" "$SWEEP_DIR/sus-resumed.md"; then
    echo "suspend-resume smoke: resumed report differs from the uninterrupted run" >&2
    diff "$SWEEP_DIR/sus-full.md" "$SWEEP_DIR/sus-resumed.md" >&2 || true
    exit 1
fi

echo "==> perf smoke (host observatory: emit, self-compare, injected regression)"
# The perf gate must: emit a parseable BENCH_ci.json, pass a
# same-binary re-run compare, and trip (exit 5) on an artificially
# injected per-tick stall. Thresholds are generous — this checks the
# gate's wiring, not this machine's absolute speed.
PERF_FLAGS=(--perf --quick --benchmarks LPS --mechanisms baseline,snake --runs 3)
./target/release/repro "${PERF_FLAGS[@]}" --label ci \
    --perf-out "$SWEEP_DIR/BENCH_ci.json"
./target/release/repro "${PERF_FLAGS[@]}" --label ci-rerun \
    --perf-out "$SWEEP_DIR/BENCH_ci_rerun.json" \
    --compare "$SWEEP_DIR/BENCH_ci.json" --rel-threshold 0.75
rc=0
./target/release/repro "${PERF_FLAGS[@]}" --label ci-inject \
    --perf-out "$SWEEP_DIR/BENCH_ci_inject.json" \
    --compare "$SWEEP_DIR/BENCH_ci.json" --rel-threshold 0.75 \
    --perf-inject-ns 20000 || rc=$?
if [ "$rc" -ne 5 ]; then
    echo "perf smoke: injected regression must exit 5, got $rc" >&2
    exit 1
fi
# Guard against catastrophic host-side slowdowns relative to the
# committed reference measurement. The bar is deliberately huge (4x):
# machines differ, but a 4x simulator slowdown is a bug regardless.
# Regenerate with:
#   repro --perf --quick --benchmarks LPS --mechanisms baseline,snake \
#         --runs 5 --label baseline --perf-out scripts/BENCH_baseline.json
./target/release/repro "${PERF_FLAGS[@]}" --label ci-vs-committed \
    --perf-out "$SWEEP_DIR/BENCH_ci_committed.json" \
    --compare scripts/BENCH_baseline.json --rel-threshold 3.0
# Record the perf trajectory across PRs: the freshly emitted
# measurement replaces the committed artifact at repo root, so every
# change ships with its own numbers instead of an empty placeholder.
cp "$SWEEP_DIR/BENCH_ci.json" BENCH_ci.json

echo "==> snaked smoke (telemetry daemon: submit, tail, cancel, clean shutdown)"
# Start the daemon on a temp socket, submit a sweep, tail it (the
# stream must carry at least one window row), cancel a queued job (its
# tail must exit with the distinct cancelled code 7), then shut down
# cleanly: the state journal must balance — every submitted job gets a
# terminal line, so no orphaned jobs survive the daemon.
SNAKED_SOCK="$SWEEP_DIR/snaked.sock"
SNAKED_LOG="$SWEEP_DIR/snaked-state.jsonl"
# One worker keeps the victim queued behind the busy sweep; with the
# default two workers it would start (and maybe finish) before cancel.
./target/release/snaked --socket "$SNAKED_SOCK" --state "$SNAKED_LOG" --workers 1 &
SNAKED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SNAKED_SOCK" ] && break
    sleep 0.05
done
if [ ! -S "$SNAKED_SOCK" ]; then
    echo "snaked smoke: daemon socket never appeared" >&2
    exit 1
fi
SNAKECTL=(./target/release/snakectl --socket "$SNAKED_SOCK")
# A budgeted standard-harness sweep occupies the scheduler long enough
# to both tail it live and cancel a job queued behind it.
BUSY_ID=$("${SNAKECTL[@]}" submit --benchmarks LPS --mechanisms baseline,snake \
    --budget 100000 --window 500)
VICTIM_ID=$("${SNAKECTL[@]}" submit --quick --benchmarks CP --mechanisms snake)
"${SNAKECTL[@]}" cancel "$VICTIM_ID" >/dev/null
rc=0
"${SNAKECTL[@]}" tail "$VICTIM_ID" >/dev/null || rc=$?
if [ "$rc" -ne 7 ]; then
    echo "snaked smoke: cancelled job's tail must exit 7, got $rc" >&2
    exit 1
fi
# The dashboard must render at least one window (its stall-breakdown
# stacked bar) from the live job and exit 0 after a single snapshot.
"${SNAKECTL[@]}" top "$BUSY_ID" --once > "$SWEEP_DIR/top.txt"
if ! grep -q 'stall \[' "$SWEEP_DIR/top.txt"; then
    echo "snaked smoke: top --once rendered no stall breakdown" >&2
    cat "$SWEEP_DIR/top.txt" >&2
    exit 1
fi
"${SNAKECTL[@]}" tail "$BUSY_ID" > "$SWEEP_DIR/tail.txt"
if ! grep -q '^window ' "$SWEEP_DIR/tail.txt"; then
    echo "snaked smoke: tail streamed no window rows" >&2
    cat "$SWEEP_DIR/tail.txt" >&2
    exit 1
fi
SNAKED_HEALTH=$("${SNAKECTL[@]}" health)
"${SNAKECTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"
# The balance invariant only holds when every append reached disk; a
# degraded journal (disk failure mid-run) is surfaced by health and
# deliberately tolerated here — degradation is counted, not fatal.
if echo "$SNAKED_HEALTH" | grep -q '"journal_degraded":true'; then
    echo "snaked smoke: journal degraded, skipping balance check" >&2
    echo "$SNAKED_HEALTH" >&2
else
    SUBMITTED=$(grep -c '"event":"submitted"' "$SNAKED_LOG")
    TERMINAL=$(grep -c '"terminal":true' "$SNAKED_LOG")
    if [ "$SUBMITTED" -ne 2 ] || [ "$SUBMITTED" -ne "$TERMINAL" ]; then
        echo "snaked smoke: state journal unbalanced" \
             "(submitted=$SUBMITTED terminal=$TERMINAL)" >&2
        cat "$SNAKED_LOG" >&2
        exit 1
    fi
fi

echo "==> snaked recovery smoke (kill -9 mid-run, restart, journal replay)"
# Kill the daemon mid-simulation with the job running, restart it over
# the same journal: the orphan must re-queue (journaled), resume from
# its checkpoint, and finish with a balanced journal.
RECOVER_SOCK="$SWEEP_DIR/recover.sock"
RECOVER_LOG="$SWEEP_DIR/recover-state.jsonl"
RCTL=(./target/release/snakectl --socket "$RECOVER_SOCK")
snaked_ready() { # ctl-array-name
    local -n ctl=$1
    for _ in $(seq 1 200); do
        "${ctl[@]}" status >/dev/null 2>&1 && return 0
        sleep 0.05
    done
    echo "snaked smoke: daemon never became ready" >&2
    exit 1
}
./target/release/snaked --socket "$RECOVER_SOCK" --state "$RECOVER_LOG" \
    --checkpoint-every 500 &
SNAKED_PID=$!
snaked_ready RCTL
RECOVER_ID=$("${RCTL[@]}" submit --benchmarks MUM --mechanisms snake \
    --budget 150000 --window 500)
# Kill as soon as the first checkpoint is journaled: the job is then
# provably mid-run (MUM runs ~136k cycles, the first checkpoint lands
# at cycle 500), however fast the host simulates.
for _ in $(seq 1 500); do
    grep -q '"event":"checkpoint"' "$RECOVER_LOG" && break
    sleep 0.01
done
kill -9 "$SNAKED_PID"
wait "$SNAKED_PID" 2>/dev/null || true
./target/release/snaked --socket "$RECOVER_SOCK" --state "$RECOVER_LOG" \
    --checkpoint-every 500 &
SNAKED_PID=$!
snaked_ready RCTL
rc=0
"${RCTL[@]}" tail "$RECOVER_ID" >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "snaked recovery smoke: recovered job must finish cleanly, got exit $rc" >&2
    exit 1
fi
if ! grep -q '"event":"requeued"' "$RECOVER_LOG"; then
    echo "snaked recovery smoke: restart never re-queued the orphaned job" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
fi
"${RCTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"
SUBMITTED=$(grep -c '"event":"submitted"' "$RECOVER_LOG")
TERMINAL=$(grep -c '"terminal":true' "$RECOVER_LOG")
if [ "$SUBMITTED" -ne 1 ] || [ "$TERMINAL" -ne 1 ]; then
    echo "snaked recovery smoke: unbalanced journal" \
         "(submitted=$SUBMITTED terminal=$TERMINAL)" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
fi

echo "==> snaked quota smoke (typed per-client rejection, exit code 8)"
# One worker + a queued quota of 1: with the busy job running and one
# job queued, a further submit from the same client must be rejected
# with the distinct quota exit code — while other clients still get in.
QUOTA_SOCK="$SWEEP_DIR/quota.sock"
QCTL=(./target/release/snakectl --socket "$QUOTA_SOCK")
./target/release/snaked --socket "$QUOTA_SOCK" --workers 1 --quota-queued 1 &
SNAKED_PID=$!
snaked_ready QCTL
QUOTA_BUSY=$("${QCTL[@]}" submit --client ci --benchmarks LPS \
    --mechanisms baseline,snake --budget 2000000 --window 5000)
for _ in $(seq 1 200); do
    "${QCTL[@]}" status "$QUOTA_BUSY" | grep -q '"state":"running"' && break
    sleep 0.05
done
"${QCTL[@]}" submit --client ci --quick --benchmarks CP --mechanisms snake \
    >/dev/null
rc=0
"${QCTL[@]}" submit --client ci --quick --benchmarks CP --mechanisms snake \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 8 ]; then
    echo "snaked quota smoke: over-quota submit must exit 8, got $rc" >&2
    exit 1
fi
"${QCTL[@]}" submit --client other --quick --benchmarks CP --mechanisms snake \
    >/dev/null
"${QCTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"

echo "==> isolation smoke (sandboxed workers: byte-identity, crash kinds, degradation)"
# A fault-free --isolate sweep must render byte-identically to the
# in-thread run; an injected abort / address-space blowout must
# quarantine only the poisoned job with its decoded crash kind while
# the siblings' rows stay identical; a missing worker binary must
# degrade to in-thread execution with identical output and exit 0.
ISO_FLAGS=(--sweep --quick --benchmarks LPS,CP --mechanisms baseline,snake)
./target/release/repro "${ISO_FLAGS[@]}" > "$SWEEP_DIR/iso-ref.txt"
./target/release/repro "${ISO_FLAGS[@]}" --isolate > "$SWEEP_DIR/iso-sandboxed.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-sandboxed.txt"; then
    echo "isolation smoke: sandboxed report differs from the in-thread run" >&2
    diff "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-sandboxed.txt" >&2 || true
    exit 1
fi
rc=0
SNAKE_EXEC_CRASH="CP/snake=abort" ./target/release/repro "${ISO_FLAGS[@]}" \
    --isolate > "$SWEEP_DIR/iso-abort.txt" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "isolation smoke: aborted child must quarantine its job (exit 3), got $rc" >&2
    exit 1
fi
if ! grep -q 'signal 6' "$SWEEP_DIR/iso-abort.txt"; then
    echo "isolation smoke: quarantine table must name the decoded crash kind" >&2
    cat "$SWEEP_DIR/iso-abort.txt" >&2
    exit 1
fi
grep '^LPS' "$SWEEP_DIR/iso-ref.txt" > "$SWEEP_DIR/iso-ref-lps.txt"
grep '^LPS' "$SWEEP_DIR/iso-abort.txt" > "$SWEEP_DIR/iso-abort-lps.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref-lps.txt" "$SWEEP_DIR/iso-abort-lps.txt"; then
    echo "isolation smoke: sibling rows changed after a child crash" >&2
    diff "$SWEEP_DIR/iso-ref-lps.txt" "$SWEEP_DIR/iso-abort-lps.txt" >&2 || true
    exit 1
fi
rc=0
SNAKE_EXEC_CRASH="CP/baseline=oom" ./target/release/repro "${ISO_FLAGS[@]}" \
    --isolate --isolate-mem 512 > "$SWEEP_DIR/iso-oom.txt" || rc=$?
if [ "$rc" -ne 3 ] || ! grep -q 'oom' "$SWEEP_DIR/iso-oom.txt"; then
    echo "isolation smoke: rlimit blowout must be classified oom (exit 3), got $rc" >&2
    cat "$SWEEP_DIR/iso-oom.txt" >&2
    exit 1
fi
SNAKE_EXEC_WORKER=/nonexistent/snake-worker ./target/release/repro \
    "${ISO_FLAGS[@]}" --isolate > "$SWEEP_DIR/iso-degraded.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-degraded.txt"; then
    echo "isolation smoke: degraded (in-thread fallback) report differs" >&2
    diff "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-degraded.txt" >&2 || true
    exit 1
fi

echo "==> snaked isolation smoke (child segfault quarantined, daemon healthy)"
# A segfaulting sandboxed child must not harm the daemon: its job ends
# quarantined with the decoded crash kind in status, the sibling's
# report survives, health stays undegraded, and shutdown is clean.
ISO_SOCK="$SWEEP_DIR/iso.sock"
ICTL=(./target/release/snakectl --socket "$ISO_SOCK")
SNAKE_EXEC_CRASH="CP/snake=segv" ./target/release/snaked \
    --socket "$ISO_SOCK" --isolate &
SNAKED_PID=$!
snaked_ready ICTL
ISO_ID=$("${ICTL[@]}" submit --quick --benchmarks LPS,CP --mechanisms snake)
for _ in $(seq 1 200); do
    "${ICTL[@]}" status "$ISO_ID" | grep -q '"state":"done"' && break
    sleep 0.05
done
ISO_STATUS=$("${ICTL[@]}" status "$ISO_ID")
if ! echo "$ISO_STATUS" | grep -q '"crash":"signal 11"'; then
    echo "snaked isolation smoke: status must carry the decoded crash kind" >&2
    echo "$ISO_STATUS" >&2
    exit 1
fi
if ! "${ICTL[@]}" health | grep -q '"exec_degraded":false'; then
    echo "snaked isolation smoke: a child crash must not degrade the executor" >&2
    "${ICTL[@]}" health >&2
    exit 1
fi
"${ICTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"

echo "CI gate passed."
