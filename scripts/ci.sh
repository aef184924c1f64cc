#!/usr/bin/env bash
# Tier-1 verification gate for the SSN reproduction suite (see ROADMAP.md),
# plus formatting. Run from the repository root:
#
#   ./scripts/ci.sh
#
# Fails fast on the first broken step.
set -euo pipefail
# Command substitutions and subshells must inherit errexit, or a failing
# $(...) step silently yields an empty string instead of stopping the gate.
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== workspace crate tests =="
# The root package's `cargo test` above does not run the crates' own
# tests: every other crate's unit tests (the optimizer's dominance table,
# the fault plan and its parser, the kernel deadline, the server's
# parsers, among others) run here.
cargo test -q --workspace --exclude ssn-lab

echo "== fault injection =="
cargo test -q --test fault_injection

echo "== telemetry smoke =="
# A real --telemetry=json run, then the in-repo validator: every line must
# parse and the stream must cover meta + spans + counters. The root package
# does not depend on the CLI or the bench binaries the gates below run, so
# build them explicitly.
cargo build --release -p ssn-cli
cargo build --release -p ssn-bench --bin mna_scale
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
tmp_json="$tmp_dir/telemetry.jsonl"
./target/release/ssn montecarlo --process p018 --drivers 8 --samples 600 \
    --threads 2 --seed 1 --telemetry=json:"$tmp_json" > /dev/null
./target/release/telemetry-lint "$tmp_json"

echo "== differential oracle gate =="
# Seeded 500-scenario corpus, fixed thread count: fails (exit 10) on any
# closed-form/MNA disagreement beyond the tolerance budgets, and the
# per-case summary must match the golden CSV bit-for-bit (accuracy drift
# inside budget is drift too).
tmp_csv="$tmp_dir/oracle_summary.csv"
tmp_repro="$tmp_dir/repro"
./target/release/ssn validate --corpus 500 --seed 1 --threads 2 \
    --csv "$tmp_csv" --repro-dir "$tmp_repro" > /dev/null
diff -u results/diff1_oracle_summary.csv "$tmp_csv" \
    || { echo "ci: differential summary drifted from results/diff1_oracle_summary.csv" >&2; exit 1; }

echo "== fault plan: a malformed SSN_FAULTS is refused =="
# A typo in a drill's plan must not run the drill with no faults.
rc=0
SSN_FAULTS=disk.enospc=2 ./target/release/ssn estimate --process p018 --drivers 8 \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
    || { echo "ci: a malformed SSN_FAULTS should exit 2 (usage), got $rc" >&2; exit 1; }

echo "== durability: kill -> resume smoke =="
# Crash the oracle run after two committed chunks (the release binary honors
# SSN_FAULTS=crash.after_commits precisely so CI can exercise a real mid-run kill),
# resume from the journal, and require the resumed summary to be
# bit-identical to an uninterrupted run of the same corpus.
golden_csv="$tmp_dir/durable_golden.csv"
./target/release/ssn validate --corpus 120 --seed 1 --threads 2 \
    --csv "$golden_csv" --repro-dir "$tmp_repro" > /dev/null
ckpt="$tmp_dir/validate.ckpt"
resumed_csv="$tmp_dir/durable_resumed.csv"
rc=0
SSN_FAULTS=crash.after_commits=2 ./target/release/ssn validate --corpus 120 --seed 1 \
    --threads 2 --checkpoint "$ckpt" --repro-dir "$tmp_repro" > /dev/null || rc=$?
[ "$rc" -eq 12 ] \
    || { echo "ci: injected crash should exit 12 (interrupted), got $rc" >&2; exit 1; }
[ -f "$ckpt" ] \
    || { echo "ci: the crashed run left no checkpoint journal at $ckpt" >&2; exit 1; }
resumed_out="$tmp_dir/durable_resumed.out"
./target/release/ssn validate --corpus 120 --seed 1 --threads 2 \
    --checkpoint "$ckpt" --resume --csv "$resumed_csv" --repro-dir "$tmp_repro" \
    > "$resumed_out"
grep -q "resume: 2 chunk(s) restored" "$resumed_out" \
    || { echo "ci: resumed run did not report the 2 restored chunks" >&2; exit 1; }
diff -u "$golden_csv" "$resumed_csv" \
    || { echo "ci: kill -> resume summary drifted from the uninterrupted run" >&2; exit 1; }

echo "== Monte Carlo stream v2 =="
# The ziggurat sampler's own gates (pinned first draws, equal-area layers,
# and the distribution of a million draws against the normal CDF), then a
# journal the Box-Muller (stream v1) build wrote mid-run: resuming it must
# be refused as a spec mismatch (exit 11), never finished on the new stream.
cargo test -q -p ssn-numeric --lib rng
v1_ckpt="$tmp_dir/mc_stream_v1.ckpt"
cp tests/fixtures/mc_stream_v1.ckpt "$v1_ckpt"
rc=0
./target/release/ssn montecarlo --process p018 --drivers 8 --samples 1536 \
    --threads 2 --seed 1 --checkpoint "$v1_ckpt" --resume \
    > /dev/null 2> "$tmp_dir/mc_stream_v1.err" || rc=$?
[ "$rc" -eq 11 ] && grep -q "params_hash" "$tmp_dir/mc_stream_v1.err" \
    || { echo "ci: a stream-v1 journal should be refused as a spec mismatch (exit 11), got $rc" >&2; \
         cat "$tmp_dir/mc_stream_v1.err" >&2; exit 1; }
cmp -s tests/fixtures/mc_stream_v1.ckpt "$v1_ckpt" \
    || { echo "ci: the refused stream-v1 journal was modified" >&2; exit 1; }

echo "== batched SoA Monte Carlo gates =="
# The scalar-vs-batched differential suite (both models, serial and at
# 2/4/8 threads; telemetry on and off is in the tier-1 determinism suite),
# and a real mid-run kill of the batched MC path resumed on the *scalar*
# path: the cross-path resume must report the restored chunks and reproduce
# the uninterrupted run's statistics exactly.
cargo test -q --test soa_equivalence
mc_golden="$tmp_dir/mc_golden.out"
./target/release/ssn montecarlo --process p018 --drivers 8 --samples 1536 \
    --threads 2 --seed 1 > "$mc_golden"
mc_ckpt="$tmp_dir/mc.ckpt"
rc=0
SSN_FAULTS=crash.after_commits=2 ./target/release/ssn montecarlo --process p018 \
    --drivers 8 --samples 1536 --threads 2 --seed 1 \
    --checkpoint "$mc_ckpt" > /dev/null || rc=$?
[ "$rc" -eq 12 ] \
    || { echo "ci: injected MC crash should exit 12 (interrupted), got $rc" >&2; exit 1; }
[ -f "$mc_ckpt" ] \
    || { echo "ci: the crashed MC run left no checkpoint journal at $mc_ckpt" >&2; exit 1; }
mc_resumed="$tmp_dir/mc_resumed.out"
./target/release/ssn montecarlo --process p018 --drivers 8 --samples 1536 \
    --threads 2 --seed 1 --checkpoint "$mc_ckpt" --resume --path scalar \
    > "$mc_resumed"
grep -q "resume: 2 chunk(s) restored" "$mc_resumed" \
    || { echo "ci: resumed MC run did not report the 2 restored chunks" >&2; exit 1; }
diff -u <(grep -E "samples:|q[0-9]" "$mc_golden") \
        <(grep -E "samples:|q[0-9]" "$mc_resumed") \
    || { echo "ci: cross-path MC resume drifted from the uninterrupted run" >&2; exit 1; }
# A run long enough (391 chunks) that the collect step splits its sort
# across threads: on one thread and on four it must print the same
# statistics, byte for byte.
mc_split_args=(--process p018 --drivers 8 --samples 100000 --seed 3)
./target/release/ssn montecarlo "${mc_split_args[@]}" --threads 1 > "$tmp_dir/mc_split_1.out"
./target/release/ssn montecarlo "${mc_split_args[@]}" --threads 4 > "$tmp_dir/mc_split_4.out"
grep -q "100000 samples:" "$tmp_dir/mc_split_1.out" \
    || { echo "ci: the 100000-sample MC run printed no statistics" >&2; exit 1; }
diff -u <(grep -E "samples:|q[0-9]" "$tmp_dir/mc_split_1.out") \
        <(grep -E "samples:|q[0-9]" "$tmp_dir/mc_split_4.out") \
    || { echo "ci: a split-sort MC run differs between 1 and 4 threads" >&2; exit 1; }

echo "== server gate: fault smoke, graceful drain, kill -9 -> resume =="
# The HTTP service's robustness contract, end to end over real sockets:
#  1. under injected network faults (torn bodies, disconnects, handler
#     panics) the server keeps serving and then drains cleanly (exit 0);
#  2. a durable job killed with SIGKILL mid-run leaves a journal; a
#     restarted server on the same spool resumes it and the resulting body
#     hash is identical to an uninterrupted run on a pristine spool.
cargo test -q --test server_robustness
cargo build --release -p ssn-bench --bin serve_load

serve_pid=""
trap '[ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp_dir"' EXIT
start_server() {
    # $1 = log file; the rest goes to `ssn serve`. Sets serve_pid / port.
    local log=$1; shift
    ./target/release/ssn serve "$@" > "$log" 2>&1 &
    serve_pid=$!
    local i
    for i in $(seq 100); do
        if grep -q "listening on" "$log" 2>/dev/null; then
            port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$log")
            return 0
        fi
        sleep 0.1
    done
    echo "ci: ssn serve did not come up" >&2; cat "$log" >&2; return 1
}
drain_server() {
    # Ask for a graceful drain until the process exits; with faults armed
    # an individual drain request can be eaten by an injected fault, so
    # repeat against fresh connections (fault decisions are per-connection).
    local i rc=0
    for i in $(seq 40); do
        curl -s -m 2 -X POST "http://127.0.0.1:$port/v1/admin/drain" > /dev/null 2>&1 || true
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.3
    done
    wait "$serve_pid" || rc=$?
    serve_pid=""
    return "$rc"
}

# --- 1. fault-injection smoke + graceful drain ---
SSN_FAULTS="seed=7,net.torn=0.1,net.disconnect=0.1,net.panic=0.05" \
    start_server "$tmp_dir/serve_faults.log" --addr 127.0.0.1:0 \
    --spool "$tmp_dir/spool_faults"
./target/release/serve_load --addr "127.0.0.1:$port" > "$tmp_dir/load.out" \
    || { echo "ci: serve_load smoke failed under faults" >&2; cat "$tmp_dir/load.out" >&2; exit 1; }
grep -q "health: ok" "$tmp_dir/load.out" \
    || { echo "ci: server unhealthy after fault smoke" >&2; exit 1; }
# The fault plan decides per connection: read the counter on fresh
# connections until one answers (10 tries, 200 ms apart).
panics=""
for _ in $(seq 10); do
    panics=$(curl -s -m 5 "http://127.0.0.1:$port/metrics" | grep -o '"panics_caught":[0-9]*' || true)
    [ -n "$panics" ] && break
    sleep 0.2
done
{ [ -n "$panics" ] && [ "$panics" != '"panics_caught":0' ]; } \
    || { echo "ci: fault plan injected no handler panics ($panics)" >&2; exit 1; }
drain_server \
    || { echo "ci: faulted server did not drain cleanly (exit $?)" >&2; exit 1; }
grep -q "drained" "$tmp_dir/serve_faults.log" \
    || { echo "ci: no drain line in the serve log" >&2; cat "$tmp_dir/serve_faults.log" >&2; exit 1; }

# --- 2. kill -9 mid-job -> restart -> byte-identical resume ---
# The job must comfortably outlive the kill window (a completed job
# deletes its journal and leaves only the cached result), so size it to
# several seconds of work and kill as soon as chunks start committing.
job_samples=400000
job_query="/v1/montecarlo?drivers=8&samples=$job_samples&seed=7"
# Golden: the same job on an untouched server and spool, uninterrupted.
start_server "$tmp_dir/serve_gold.log" --addr 127.0.0.1:0 --spool "$tmp_dir/spool_gold"
gold_line=$(./target/release/serve_load --addr "127.0.0.1:$port" --job --samples "$job_samples")
drain_server || { echo "ci: golden server did not drain cleanly" >&2; exit 1; }
# Crash run: submit, wait for the journal to appear (first committed
# chunk), let a few more commits land, then SIGKILL mid-job.
start_server "$tmp_dir/serve_crash.log" --addr 127.0.0.1:0 --spool "$tmp_dir/spool_crash"
curl -s -m 5 "http://127.0.0.1:$port$job_query" | grep -Eq '"queued"|"running"' \
    || { echo "ci: job submission was not accepted" >&2; exit 1; }
for i in $(seq 100); do
    ls "$tmp_dir"/spool_crash/job-*.ckpt > /dev/null 2>&1 && break
    sleep 0.1
done
sleep 0.5
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
ls "$tmp_dir"/spool_crash/job-*.ckpt > /dev/null 2>&1 \
    || { echo "ci: SIGKILL left no checkpoint journal in the spool (job already done?)" >&2; exit 1; }
# Restart on the same spool; resubmitting the identical request resumes.
start_server "$tmp_dir/serve_resume.log" --addr 127.0.0.1:0 --spool "$tmp_dir/spool_crash"
resumed_line=$(./target/release/serve_load --addr "127.0.0.1:$port" --job --samples "$job_samples")
resumed=$(curl -s -m 5 "http://127.0.0.1:$port/metrics" | grep -o '"chunks_resumed":[0-9]*' || true)
{ [ -n "$resumed" ] && [ "$resumed" != '"chunks_resumed":0' ]; } \
    || { echo "ci: restarted server recomputed instead of resuming ($resumed)" >&2; exit 1; }
drain_server || { echo "ci: resumed server did not drain cleanly" >&2; exit 1; }
[ -n "$gold_line" ] && [ "$gold_line" = "$resumed_line" ] \
    || { echo "ci: resumed job bytes differ from the uninterrupted run:" >&2; \
         echo "  golden:  $gold_line" >&2; echo "  resumed: $resumed_line" >&2; exit 1; }

echo "== large-circuit solver gates =="
# The sparse/GMRES tier (DESIGN.md §13): the sparse-vs-dense differential
# and GMRES property suite, a bench smoke (mna_scale asserts tier
# agreement and factor-reuse bit-identity internally; the small edge cap
# keeps it cheap — no timing thresholds, timings vary by host), and the
# grid gate itself: synthesized power-grid meshes through the sparse
# tier, ending on the 1024-node case, exit 10 on any violation.
cargo test -q --test solver_scale
./target/release/mna_scale 12 > /dev/null
./target/release/ssn validate --grids 2 --seed 1 > "$tmp_dir/grids.out" \
    || { echo "ci: grid gate failed" >&2; cat "$tmp_dir/grids.out" >&2; exit 1; }
grep -q "dim 1032" "$tmp_dir/grids.out" \
    || { echo "ci: grid gate did not reach the 1032-unknown mesh" >&2; exit 1; }
grep -q "all grids within invariants" "$tmp_dir/grids.out" \
    || { echo "ci: grid gate reported violations" >&2; cat "$tmp_dir/grids.out" >&2; exit 1; }

echo "== optimizer gates: differential suite, kill -> resume =="
# The inverse-design tier (DESIGN.md §14): the enumeration-differential
# suite (optimizer front == brute force, bit for bit, on a seeded corpus
# and on a 12 288-point grid, where it also asserts real pruning),
# and a mid-search kill: SSN_FAULTS=crash.after_commits crashes the CLI between
# per-level journal commits, the restart resumes the journal family, and
# the resumed CSV front must be byte-identical to an uninterrupted run
# (--format csv is data-only precisely so this diff can be exact).
cargo test -q --test optimize_differential
opt_args=(--process p018 --max-drivers 12 --l-points 8 --c-points 2
    --tr-points 2 --threads 2)
opt_golden="$tmp_dir/opt_golden.csv"
./target/release/ssn optimize "${opt_args[@]}" --format csv > "$opt_golden"
opt_ckpt="$tmp_dir/optimize.ckpt"
rc=0
SSN_FAULTS=crash.after_commits=2 ./target/release/ssn optimize "${opt_args[@]}" \
    --checkpoint "$opt_ckpt" > /dev/null || rc=$?
[ "$rc" -eq 12 ] \
    || { echo "ci: injected optimize crash should exit 12 (interrupted), got $rc" >&2; exit 1; }
ls "$opt_ckpt".lv* > /dev/null 2>&1 \
    || { echo "ci: the crashed search left no per-level journal at $opt_ckpt.lv*" >&2; exit 1; }
opt_resumed_out="$tmp_dir/opt_resumed.out"
./target/release/ssn optimize "${opt_args[@]}" --checkpoint "$opt_ckpt" --resume \
    > "$opt_resumed_out"
grep -q "restored from checkpoint" "$opt_resumed_out" \
    || { echo "ci: resumed search did not report restored chunks" >&2; exit 1; }
# A second resume replays the now-complete journal family end to end; its
# CSV must reproduce the uninterrupted front byte for byte.
opt_resumed_csv="$tmp_dir/opt_resumed.csv"
./target/release/ssn optimize "${opt_args[@]}" --checkpoint "$opt_ckpt" --resume \
    --format csv > "$opt_resumed_csv"
diff -u "$opt_golden" "$opt_resumed_csv" \
    || { echo "ci: kill -> resume optimize front drifted from the uninterrupted run" >&2; exit 1; }
rc=0
./target/release/ssn optimize "${opt_args[@]}" --max-noise-frac 0.000001 \
    > /dev/null || rc=$?
[ "$rc" -eq 16 ] \
    || { echo "ci: an impossible noise cap should exit 16 (no feasible point), got $rc" >&2; exit 1; }

echo "== storage fault gates: sweep, ENOSPC degrade, crash-under-EIO resume =="
# The storage fault contract (DESIGN.md section 15), end to end on the release
# binary. First the crash-consistency sweep: a hard fault at every I/O
# operation index followed by a restart must yield a bit-identical resume or a
# typed clean-slate rerun, never a panic or silently-corrupt output.
cargo test -q --test storage_faults
# ENOSPC on every durable write: the run must shed the journal, finish with
# exit 0, report the degrade in the footer, and still produce statistics
# byte-identical to the fault-free golden run.
sf_ckpt="$tmp_dir/sf.ckpt"
sf_degraded="$tmp_dir/sf_degraded.out"
SSN_FAULTS="seed=1,disk.enospc=1" ./target/release/ssn montecarlo \
    --process p018 --drivers 8 --samples 1536 --threads 2 --seed 1 \
    --checkpoint "$sf_ckpt" > "$sf_degraded" \
    || { echo "ci: full-disk MC run should degrade and exit 0" >&2; exit 1; }
grep -q "degraded: checkpoint-disabled" "$sf_degraded" \
    || { echo "ci: full-disk MC run did not report the checkpoint degrade" >&2; exit 1; }
[ ! -f "$sf_ckpt" ] \
    || { echo "ci: full-disk MC run left a journal despite ENOSPC on every write" >&2; exit 1; }
diff -u <(grep -E "samples:|q[0-9]" "$mc_golden") \
        <(grep -E "samples:|q[0-9]" "$sf_degraded") \
    || { echo "ci: ENOSPC-degraded MC statistics drifted from the uninterrupted run" >&2; exit 1; }
# Combined drill: a mid-run kill while transient EIO is also firing. The
# retry policy must absorb the EIO so both commits land, the injected crash
# must still exit 12, and a fault-off resume must restore exactly those two
# chunks and reproduce the golden statistics byte for byte.
rc=0
SSN_FAULTS="seed=2,disk.eio=0.1,crash.after_commits=2" \
    ./target/release/ssn montecarlo --process p018 --drivers 8 --samples 1536 \
    --threads 2 --seed 1 --checkpoint "$sf_ckpt" > /dev/null || rc=$?
[ "$rc" -eq 12 ] \
    || { echo "ci: crash-under-EIO MC run should exit 12 (interrupted), got $rc" >&2; exit 1; }
[ -f "$sf_ckpt" ] \
    || { echo "ci: the crash-under-EIO run left no checkpoint journal at $sf_ckpt" >&2; exit 1; }
sf_resumed="$tmp_dir/sf_resumed.out"
./target/release/ssn montecarlo --process p018 --drivers 8 --samples 1536 \
    --threads 2 --seed 1 --checkpoint "$sf_ckpt" --resume > "$sf_resumed"
grep -q "resume: 2 chunk(s) restored" "$sf_resumed" \
    || { echo "ci: resume after crash-under-EIO did not report the 2 restored chunks" >&2; exit 1; }
diff -u <(grep -E "samples:|q[0-9]" "$mc_golden") \
        <(grep -E "samples:|q[0-9]" "$sf_resumed") \
    || { echo "ci: resume after crash-under-EIO drifted from the uninterrupted run" >&2; exit 1; }

echo "== journal lock: stale takeover under load =="
# Two threads race to take over a dead holder's lock file; at most one may
# hold it at a time. The race shows only when both vCPUs are busy, so two
# busy loops run beside 50 repetitions of the test, and every one must pass.
race_bin=$(cargo test --test storage_faults --no-run 2>&1 \
    | sed -n 's#.*Executable tests/storage_faults.rs (\(.*\))$#\1#p')
[ -x "$race_bin" ] || { echo "ci: no storage_faults test binary ($race_bin)" >&2; exit 1; }
busy=()
for _ in 1 2; do
    (while :; do :; done) &
    busy+=($!)
done
race_failed=0
for _ in $(seq 50); do
    "$race_bin" -q --exact stale_lock_takeover_race_never_yields_two_live_holders \
        > /dev/null 2>&1 || race_failed=$((race_failed + 1))
done
kill "${busy[@]}"
wait "${busy[@]}" 2> /dev/null || true
[ "$race_failed" -eq 0 ] \
    || { echo "ci: stale lock takeover race failed $race_failed of 50 runs under load" >&2; exit 1; }

echo "== panic audit =="
./scripts/panic_audit.sh

echo "== formatting =="
cargo fmt --check

echo "ci: all gates passed"
