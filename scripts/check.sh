#!/bin/sh
# Tier-1 gate (ROADMAP.md): formatting, vet, build, full tests, and a race
# pass over the packages with lock-free hot paths. Run via `make check`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (obs, vm, faultinj, prof)"
go test -race ./internal/obs/... ./internal/vm/... ./internal/faultinj/... ./internal/prof/...

echo "== go test -race (harness trial pool)"
# Derived|Recording: the recorded runs one executor session shares across
# the pool's workers (record.go).
go test -race ./internal/harness -run 'TrialSeed|Collect|Map|First|JobsInvariance|Retry|Faults|Flight|Derived|Recording'

echo "== go test -race (artifact store + executors)"
# The durable trial pipeline: the artifact store takes concurrent Load/Put
# from pool workers (TestStoreSharedBlobConcurrentLoads drives parallel
# loads of one blob the session holds), and the subprocess executor shares
# its worker freelist across them; both run under the race detector, plus
# the harness-level executor-equivalence, kill-resume and stored-record
# suites.
go test -race ./internal/artifact/...
go test -race ./internal/harness -run 'ExecutorEquivalence|KillResume|CorruptArtifact|UndecodableArtifact|PriorStore|LoadOutcome|Subproc|RequestKey|UnknownKind|CarriesContext|StderrTail'

echo "== go test -race (obshttp live scrape)"
# The telemetry server is scraped while the pipeline runs; the httptest
# smoke in this package validates mid-run /metrics expositions.
go test -race ./internal/obshttp/...

echo "== go test -race (fleet ingestion)"
# The sharded profile store takes concurrent ingest batches while reports
# drain its dirty sets; the whole package runs under the race detector.
go test -race ./internal/fleet/...

echo "== fuzz corpus replay"
# Replays the committed seed corpora (f.Add seeds + testdata/fuzz entries)
# as regular tests; no fuzzing time is spent. The harness and artifact
# targets hold the trial codec and the manifest reader to encoding/json.
go test ./internal/stats ./internal/pmu ./internal/faultinj ./internal/synth ./internal/obs ./internal/rng \
    ./internal/harness ./internal/artifact -run 'Fuzz'

echo "== fuzz VM dispatch (bounded)"
# Explores new programs against the VM's batched register-only runs:
# FuzzRunProgram runs each one batched and per-instruction and demands
# identical results, so every check searches beyond the committed seeds.
go test ./internal/vm -run '^$' -fuzz FuzzRunProgram -fuzztime 10s

echo "== -jobs stdout identity"
EXP="${TMPDIR:-/tmp}/stmdiag-check-experiments"
go build -o "$EXP" ./cmd/experiments
"$EXP" -table 3 -jobs 1 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-seq.txt"
"$EXP" -table 3 -jobs 4 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-par.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-seq.txt" "${TMPDIR:-/tmp}/stmdiag-check-par.txt"; then
    echo "stdout differs between -jobs 1 and -jobs 4" >&2
    exit 1
fi

echo "== -faults smoke + jobs identity"
# Table 8 sweeps the injectors internally; its output must also be
# -jobs-invariant (fault plans and retries derive from seeds, not workers).
"$EXP" -table 8 -failruns 4 -succruns 4 -jobs 1 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-f1.txt"
"$EXP" -table 8 -failruns 4 -succruns 4 -jobs 4 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-f4.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-f1.txt" "${TMPDIR:-/tmp}/stmdiag-check-f4.txt"; then
    echo "table 8 stdout differs between -jobs 1 and -jobs 4" >&2
    exit 1
fi
# The -faults flag end to end: an armed spec must run the pipeline to
# completion, and malformed flag values must be rejected with exit 2.
SMD="${TMPDIR:-/tmp}/stmdiag-check-stmdiag"
go build -o "$SMD" ./cmd/stmdiag
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 -faults rate=0.01,seed=3 >/dev/null 2>&1
if "$SMD" -app sort -faults rate=2 >/dev/null 2>&1; then
    echo "-faults rate=2 (out of range) was accepted" >&2
    exit 1
fi
if "$SMD" -app sort -jobs -1 >/dev/null 2>&1; then
    echo "-jobs -1 was accepted" >&2
    exit 1
fi
for badflags in "-failruns -1" "-succruns -2" "-cbiruns -3"; do
    set +e
    "$SMD" -app sort $badflags >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" != 2 ]; then
        echo "stmdiag $badflags exited $rc, want 2" >&2
        exit 1
    fi
done

echo "== -corpus smoke + jobs identity"
# Table 9's generated-bug corpus: a reduced per-cell sweep must complete
# and render byte-identically whatever the worker count (every seed
# derives from cell coordinates, never worker identity).
"$EXP" -corpus -corpus-n 2 -failruns 4 -succruns 4 -jobs 1 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-c1.txt"
"$EXP" -corpus -corpus-n 2 -failruns 4 -succruns 4 -jobs 4 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-c4.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-c1.txt" "${TMPDIR:-/tmp}/stmdiag-check-c4.txt"; then
    echo "table 9 stdout differs between -jobs 1 and -jobs 4" >&2
    exit 1
fi
grep -q 'Table 9' "${TMPDIR:-/tmp}/stmdiag-check-c1.txt" \
    || { echo "-corpus printed no Table 9" >&2; exit 1; }
if "$EXP" -corpus -corpus-n -1 >/dev/null 2>&1; then
    echo "-corpus-n -1 was accepted" >&2
    exit 1
fi

echo "== -executor subprocess identity"
# The multi-process executor must render the same golden bytes the
# sequential in-process run produced above (trials funnel through the same
# portable-trial path whatever the engine).
"$EXP" -table 3 -jobs 4 -executor subprocess 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-sub.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-seq.txt" "${TMPDIR:-/tmp}/stmdiag-check-sub.txt"; then
    echo "stdout differs between -executor inproc and -executor subprocess" >&2
    exit 1
fi
# Table 9's corpus programs run as trials too, so worker processes must
# render the in-process corpus bytes from the -corpus stanza above.
"$EXP" -corpus -corpus-n 2 -failruns 4 -succruns 4 -jobs 2 -executor subprocess \
    2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-csub.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-c1.txt" "${TMPDIR:-/tmp}/stmdiag-check-csub.txt"; then
    echo "table 9 stdout differs between -executor inproc and -executor subprocess" >&2
    exit 1
fi

echo "== federated telemetry determinism"
# The federation gate: a full-telemetry run must render byte-identical
# artifacts — Chrome trace, deterministic metrics snapshot, golden stdout —
# for every -jobs value and for in-process vs subprocess execution, because
# worker deltas fold into the coordinator sink in trial-commit order, never
# in arrival order. The stderr stream is the detjson exposition plus the
# announce lines, which are filtered out (the trace line names a
# per-variant path; the table summary reports wall clock).
FED_REF=""
for fed_ex in inproc subprocess; do
    for fed_jobs in 1 4 9; do
        tag="$fed_ex-j$fed_jobs"
        "$EXP" -table 3 -jobs "$fed_jobs" -executor "$fed_ex" \
            -trace "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.trace" \
            -metrics -metrics-format detjson \
            >"${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.out" \
            2>"${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.err"
        grep -q '^telemetry: run id ' "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.err" \
            || { echo "federated run $tag announced no run id" >&2; exit 1; }
        grep -v -e '^telemetry: ' -e '^trace: ' -e '^table ' \
            "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.err" \
            >"${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.metrics"
        if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-seq.txt" \
            "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.out"; then
            echo "federated run $tag changed the golden stdout" >&2
            exit 1
        fi
        if [ -z "$FED_REF" ]; then
            FED_REF="$tag"
            continue
        fi
        if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-fed-$FED_REF.trace" \
            "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.trace"; then
            echo "federated trace differs between $FED_REF and $tag" >&2
            exit 1
        fi
        if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-fed-$FED_REF.metrics" \
            "${TMPDIR:-/tmp}/stmdiag-check-fed-$tag.metrics"; then
            echo "deterministic metrics differ between $FED_REF and $tag" >&2
            exit 1
        fi
    done
done

echo "== kill -9 -> -resume identity"
# The durability acceptance end to end: SIGKILL a run mid-sweep, resume
# from its artifact store, and demand the golden bytes — finished trials
# load from disk, the rest re-execute.
RESUME_DIR="${TMPDIR:-/tmp}/stmdiag-check-resume"
rm -rf "$RESUME_DIR"
"$EXP" -table 3 -jobs 2 -resume "$RESUME_DIR" >/dev/null 2>&1 &
KILL_PID=$!
sleep 0.3
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
"$EXP" -table 3 -jobs 4 -resume "$RESUME_DIR" 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-res.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-seq.txt" "${TMPDIR:-/tmp}/stmdiag-check-res.txt"; then
    echo "stdout differs after kill -9 and -resume" >&2
    exit 1
fi
# A second resume replays the now-complete store and must match again.
"$EXP" -table 3 -jobs 1 -resume "$RESUME_DIR" 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-res2.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-seq.txt" "${TMPDIR:-/tmp}/stmdiag-check-res2.txt"; then
    echo "stdout differs on warm -resume replay" >&2
    exit 1
fi
rm -rf "$RESUME_DIR"
# The same for Table 9: kill a corpus sweep, resume it, then replay the
# complete store; both must print the -corpus stanza's bytes.
"$EXP" -corpus -corpus-n 2 -failruns 4 -succruns 4 -jobs 2 -resume "$RESUME_DIR" >/dev/null 2>&1 &
KILL_PID=$!
sleep 0.05
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
for cres in 1 2; do
    "$EXP" -corpus -corpus-n 2 -failruns 4 -succruns 4 -jobs 4 -resume "$RESUME_DIR" \
        2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-cres$cres.txt"
    if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-c1.txt" "${TMPDIR:-/tmp}/stmdiag-check-cres$cres.txt"; then
        echo "table 9 stdout differs after kill -9 and -resume (pass $cres)" >&2
        exit 1
    fi
done
rm -rf "$RESUME_DIR"
# Malformed execution flags and negative run counts are usage errors
# (exit 2) before any work runs.
for badflags in "-executor bogus" "-resume /dev/null" "-worker-bin /bin/true" \
    "-failruns -1" "-succruns -2" "-cbiruns -3" "-overhead -1"; do
    set +e
    "$EXP" -table 3 $badflags >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" != 2 ]; then
        echo "experiments $badflags exited $rc, want 2" >&2
        exit 1
    fi
done

echo "== -ranker smoke"
# The pluggable scoring formulas: an alternative ranker must run the
# pipeline to completion, and unknown names must be rejected with exit 2.
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 -ranker ochiai >/dev/null 2>&1
if "$SMD" -app sort -ranker bogus >/dev/null 2>&1; then
    echo "-ranker bogus was accepted" >&2
    exit 1
fi

echo "== telemetry flags smoke"
# -serve on an ephemeral port must run the sweep to completion, and a
# malformed -metrics-format must be rejected with exit 2.
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 -serve 127.0.0.1:0 >/dev/null 2>&1
if "$SMD" -app sort -metrics-format yaml >/dev/null 2>&1; then
    echo "-metrics-format yaml was accepted" >&2
    exit 1
fi
# Metrics render on stderr so they never perturb the golden table stdout.
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 -metrics -metrics-format prom 2>&1 >/dev/null \
    | grep -q '^# EOF$' || { echo "-metrics-format prom printed no OpenMetrics exposition" >&2; exit 1; }

echo "== -profile-report smoke"
# A profiled run renders the hot-spot report on stderr, leaving the golden
# stdout untouched; a negative top-K must be rejected with exit 2.
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 -profile-report 10 2>"${TMPDIR:-/tmp}/stmdiag-check-prof.txt" \
    >"${TMPDIR:-/tmp}/stmdiag-check-profout.txt"
grep -q 'cost attribution: hot-spot report' "${TMPDIR:-/tmp}/stmdiag-check-prof.txt" \
    || { echo "-profile-report printed no hot-spot report" >&2; exit 1; }
"$SMD" -app sort -failruns 4 -succruns 4 -cbiruns 40 2>/dev/null >"${TMPDIR:-/tmp}/stmdiag-check-plainout.txt"
if ! cmp -s "${TMPDIR:-/tmp}/stmdiag-check-profout.txt" "${TMPDIR:-/tmp}/stmdiag-check-plainout.txt"; then
    echo "-profile-report changed the golden stdout" >&2
    exit 1
fi
if "$SMD" -app sort -profile-report -1 >/dev/null 2>&1; then
    echo "-profile-report -1 was accepted" >&2
    exit 1
fi

echo "== fleetd ingest smoke"
# The fleet service end to end: start the aggregator on an ephemeral port,
# push a small captured profile population over simulated clients, and
# scrape the ranking back. -addr-file hands the bound address to the
# script, and -report fetches over HTTP, so no curl/wget is needed.
FLEETD="${TMPDIR:-/tmp}/stmdiag-check-fleetd"
FLEET_ADDR_FILE="${TMPDIR:-/tmp}/stmdiag-check-fleetd.addr"
go build -o "$FLEETD" ./cmd/fleetd
rm -f "$FLEET_ADDR_FILE"
"$FLEETD" -listen 127.0.0.1:0 -addr-file "$FLEET_ADDR_FILE" 2>/dev/null &
FLEETD_PID=$!
trap 'kill "$FLEETD_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$FLEET_ADDR_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "fleetd never wrote its -addr-file" >&2
        exit 1
    fi
    sleep 0.1
done
FLEET_URL="http://$(cat "$FLEET_ADDR_FILE")"
"$FLEETD" -push "$FLEET_URL" -app sort -failruns 4 -succruns 4 \
    -fleet-clients 3 -fleet-batch 2 >/dev/null
"$FLEETD" -report "$FLEET_URL" | grep -q 'LBRA diagnosis over' \
    || { echo "fleetd -report printed no diagnosis" >&2; exit 1; }
kill "$FLEETD_PID" 2>/dev/null || true
trap - EXIT
# Malformed -fleet-* values must be rejected with exit 2 (usage error)
# before any capture or network work starts.
for badflags in "-fleet-shards 0" "-fleet-clients 0" "-fleet-batch -1" "-fleet-retries -1" "-fleet-store ${TMPDIR:-/tmp}/stmdiag-check-walless" \
    "-failruns -1" "-succruns -2"; do
    set +e
    "$FLEETD" -report "$FLEET_URL" $badflags >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" != 2 ]; then
        echo "fleetd $badflags exited $rc, want 2" >&2
        exit 1
    fi
done
set +e
"$FLEETD" -push "$FLEET_URL" -report "$FLEET_URL" >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" != 2 ]; then
    echo "fleetd -push with -report exited $rc, want 2" >&2
    exit 1
fi

echo "== subprocess -serve live scrape"
# Federated telemetry on a live run: a subprocess-executor sweep serving
# /metrics must expose worker-labeled counter families while trials run —
# per-worker deltas federate over the trial wire into the coordinator
# registry as worker="N" series. fleetd -get is the scraper, so no
# curl/wget is needed; -serve-addr-file hands over the ephemeral port.
SERVE_ADDR_FILE="${TMPDIR:-/tmp}/stmdiag-check-serve.addr"
SERVE_METRICS="${TMPDIR:-/tmp}/stmdiag-check-serve-metrics.txt"
rm -f "$SERVE_ADDR_FILE"
# The sweep must outlive the first few scrapes, so run a table 7 pass big
# enough to stay up ~a second; a table 3 smoke finishes before the
# scraper's first request lands.
"$EXP" -table 7 -failruns 4 -succruns 4 -cbiruns 300 -jobs 2 \
    -executor subprocess -serve 127.0.0.1:0 \
    -serve-addr-file "$SERVE_ADDR_FILE" >/dev/null 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$SERVE_ADDR_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serving run never wrote its -serve-addr-file" >&2
        exit 1
    fi
    sleep 0.05
done
SERVE_URL="http://$(cat "$SERVE_ADDR_FILE")"
scraped=0
i=0
while [ "$i" -lt 100 ]; do
    i=$((i + 1))
    if "$FLEETD" -get "$SERVE_URL/metrics" >"$SERVE_METRICS" 2>/dev/null \
        && grep -q 'worker="' "$SERVE_METRICS"; then
        scraped=1
        break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.05
done
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT
if [ "$scraped" != 1 ]; then
    echo "live /metrics never exposed a worker=\"N\" family" >&2
    exit 1
fi

echo "== bench smoke"
# The reduced bench pass: scaling curve, overhead passes and the VM
# benchmark end to end, writing under \$TMPDIR.
sh scripts/bench.sh --smoke

echo "== perfbench smoke"
# The repository benchmark is a module of its own (perfbench/go.mod): a
# few ops per workload prove it still builds against the packages it
# drives and still fails an op whose output is corrupted.
python3 perfbench/run.py --smoke

echo "== benchdiff (warn-only)"
# Compares the smoke pass against the committed baselines. Smoke timings
# use tiny run counts on whatever machine this is, so regressions only
# warn here; `make benchdiff` is the enforcing variant for full `make
# bench` output.
WARN_ONLY=1 sh scripts/benchdiff.sh BENCH_harness.json "${TMPDIR:-/tmp}/stmdiag-bench-harness.json"
WARN_ONLY=1 sh scripts/benchdiff.sh BENCH_vm.json "${TMPDIR:-/tmp}/stmdiag-bench-vm.json"

echo "check: OK"
