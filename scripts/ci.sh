#!/bin/sh
# ci.sh - the full local gate: formatting, vet, build, race-enabled tests,
# and the cross-run regression diffs against the committed baselines.
# Run from the repository root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
served_pid=""
cleanup() {
    [ -n "$served_pid" ] && kill "$served_pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== embedded assets =="
asset=internal/obs/dashboard.html
if [ ! -s "$asset" ]; then
    echo "missing or empty embedded dashboard asset: $asset" >&2
    exit 1
fi
if grep -nE '[ 	]+$' "$asset" >&2; then
    echo "trailing whitespace in $asset" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== bench module (go build, go vet) =="
# bench/ is its own module and compiles against internal/ names, so a
# removed or renamed function there breaks the repository benchmark.
(cd bench && go build ./... && go vet ./...)

echo "== engine determinism (go test -race) =="
# The run-plan engine carries the whole -jobs determinism contract, so
# its tests (plus the harness golden jobs=1-vs-jobs=8 comparison) get an
# explicit race-enabled pass before the full suite.
go test -race ./internal/engine/
go test -race -run 'TestFigTablesDeterministicAcrossJobs|TestEngineCacheSharedAcrossFigures|TestSoCDeterministicAcrossJobs|TestSoCAccelDeterministicAcrossJobs|TestTrafficDeterministicAcrossJobs' ./internal/harness/

echo "== go test -race =="
go test -race ./...

echo "== codec fuzz =="
# The disk-cache reader and the result decoder take bytes from disk and
# from the network: a short fuzz run of each must find no panic and no
# unstable re-encoding. go test -fuzz takes one target per run.
for target in FuzzDiskCacheGet FuzzDecodeResult; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/dist/
done

echo "== regression gate (hetcore diff) =="
# Re-measure this host's simulation rate at the baseline's budget and
# compare against the committed record. The deterministic instruction
# counts must match exactly (default 0.1% tolerance); the rates are host
# timing, so only a >75% slowdown fails — catching pathological
# regressions without flaking on machine-to-machine variance.
go build -o "$tmp/hetcore" ./cmd/hetcore
"$tmp/hetcore" bench -instr 300000 -o "$tmp/BENCH_sim_rate.json" >/dev/null
"$tmp/hetcore" diff -rate-tol 75 scripts/baseline/BENCH_sim_rate.json "$tmp/BENCH_sim_rate.json"

echo "== hotspots gate (hetcore hotspots) =="
# A tiny workload under pprof must yield a schema-stamped report whose
# cumulative table names the core's cycle loop, so the per-stage view
# (Core.step and the phases it calls) reads off a real profile. An empty
# or missing CPU profile omits the table and fails the gate. The ranking
# arithmetic (recursion counted once, cum >= flat) is pinned by go
# tests; this gate proves the end-to-end CLI path.
"$tmp/hetcore" hotspots -instr 150000 -json -o "$tmp/hotspots.json" >/dev/null
for want in '"schema": "hetcore.prof/v1"' '"cpu_cum_top"' \
    '"function": "hetcore/internal/cpu.(*Core).step"'; do
    if ! grep -qF "$want" "$tmp/hotspots.json"; then
        echo "hotspots report missing $want:" >&2
        cat "$tmp/hotspots.json" >&2
        exit 1
    fi
done

echo "== tools gate (hetcore trace and sweep) =="
# A dumped trace read back must summarise exactly like the live workload
# it was dumped from, and a sweep must print the same rows and report the
# same run records at any -jobs width. Each run takes under a second.
"$tmp/hetcore" trace dump -workload lu -n 50000 -seed 1 -core 0 -o "$tmp/lu.trc" >/dev/null
"$tmp/hetcore" trace stats -in "$tmp/lu.trc" >"$tmp/trace-file.txt"
"$tmp/hetcore" trace stats -workload lu -n 50000 -seed 1 -core 0 >"$tmp/trace-live.txt"
cmp "$tmp/trace-live.txt" "$tmp/trace-file.txt" || {
    echo "trace stats of a dumped trace differ from the live workload" >&2
    exit 1
}
for sweep in "fastsize -instr 30000" "waves -kernel DCT"; do
    for j in 1 8; do
        # $sweep is split on purpose: a sweep name and its flags.
        # shellcheck disable=SC2086
        "$tmp/hetcore" sweep -sweep $sweep -jobs "$j" \
            -metrics-out "$tmp/sweep-j$j.json" >"$tmp/sweep-j$j.txt"
    done
    cmp "$tmp/sweep-j1.txt" "$tmp/sweep-j8.txt" || {
        echo "sweep $sweep differs between -jobs=1 and -jobs=8" >&2
        exit 1
    }
    "$tmp/hetcore" diff -tol 0 -rate-tol 0 "$tmp/sweep-j1.json" "$tmp/sweep-j8.json" \
        >"$tmp/sweep-diff.txt" || {
        echo "sweep $sweep reports differ between -jobs=1 and -jobs=8:" >&2
        cat "$tmp/sweep-diff.txt" >&2
        exit 1
    }
done

echo "== paper-figure gate (hetcore all vs results_full.txt) =="
# The committed results_full.txt is the output contract: every table of
# a cold `hetcore all` must match it byte for byte. A second run on the
# same -cache-dir must simulate nothing and print the same bytes.
"$tmp/hetcore" all -seed 1 -jobs 2 -cache-dir "$tmp/all-cache" \
    -metrics-out "$tmp/all-cold.json" >"$tmp/all-cold.txt"
cmp results_full.txt "$tmp/all-cold.txt" || {
    echo "hetcore all output differs from results_full.txt" >&2
    exit 1
}
# The exact job count: a CPU pre-pass that added a key, dropped one or
# simulated one twice would move it.
# The value must end its line, so a longer number does not match.
if ! grep -qE '"engine_jobs_run": 13087,?$' "$tmp/all-cold.json"; then
    echo "cold hetcore all ran a different number of engine jobs than 13087:" >&2
    grep '"engine_' "$tmp/all-cold.json" >&2
    exit 1
fi
# The exact run-record count: 155 cpu, 96 gpu, 28 cmp and 12 traffic
# runs plus one summary record of the SoC search (its 12,782 design
# points leave no record each).
if ! grep -q '"runs": 292,' "$tmp/all-cold.json"; then
    echo "cold hetcore all reported a different number of run records than 292:" >&2
    grep '"runs": [0-9]' "$tmp/all-cold.json" >&2
    exit 1
fi
# The exact deterministic counters, the same at any -jobs width: the
# instructions the pre-pass synthesized and replayed, and the SoC mixes
# in and over budget, counted once although three searches read them.
# Each value must end its line, so a longer number does not match.
for want in '"trace.insts_synthesized": 19450467' '"trace.insts_replayed": 111837184' \
    '"soc_configs_evaluated": 913' '"soc_configs_over_budget": 1407'; do
    if ! grep -qE "$want,?\$" "$tmp/all-cold.json"; then
        echo "cold hetcore all report does not read $want:" >&2
        grep '"trace\.insts_\|"soc_configs_' "$tmp/all-cold.json" >&2
        exit 1
    fi
done
# A report diffed against itself at zero tolerance must pass, and must
# print the same table every time (a warm report has no run records, so
# the cold one is used).
for i in 1 2; do
    "$tmp/hetcore" diff -tol 0 -rate-tol 0 "$tmp/all-cold.json" "$tmp/all-cold.json" \
        >"$tmp/all-selfdiff$i.txt"
done
cmp "$tmp/all-selfdiff1.txt" "$tmp/all-selfdiff2.txt" || {
    echo "hetcore diff of a report against itself is not deterministic" >&2
    exit 1
}
"$tmp/hetcore" all -seed 1 -jobs 2 -cache-dir "$tmp/all-cache" \
    -metrics-out "$tmp/all-warm.json" >"$tmp/all-warm.txt"
cmp results_full.txt "$tmp/all-warm.txt" || {
    echo "cached hetcore all output differs from results_full.txt" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/all-warm.json"; then
    echo "cached hetcore all still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/all-warm.json" >&2
    exit 1
fi
if ! grep -qE '"engine_disk_hits": 13087,?$' "$tmp/all-warm.json"; then
    echo "cached hetcore all read a different number of disk entries than 13087:" >&2
    grep '"engine_' "$tmp/all-warm.json" >&2
    exit 1
fi
# Runs served from the disk cache, SoC points included, add no record.
if ! grep -q '"runs": 0,' "$tmp/all-warm.json"; then
    echo "cached hetcore all still reported run records:" >&2
    grep '"runs": [0-9]' "$tmp/all-warm.json" >&2
    exit 1
fi
# The plan's workers pull jobs in order at any width; the printed bytes
# must not depend on it. Warm, each run takes about half a second.
for j in 1 8; do
    "$tmp/hetcore" all -seed 1 -jobs "$j" -cache-dir "$tmp/all-cache" >"$tmp/all-warm-j$j.txt"
    cmp results_full.txt "$tmp/all-warm-j$j.txt" || {
        echo "cached hetcore all at -jobs $j differs from results_full.txt" >&2
        exit 1
    }
done

echo "== dist gate (persistent cache + hetserved) =="
# End-to-end check of internal/dist: run the same experiment twice
# against one -cache-dir — the second run must simulate nothing
# (engine_jobs_run == 0) and print byte-identical tables — then a third
# time through a live hetserved daemon, which must also match.
go build -o "$tmp/hetserved" ./cmd/hetserved

start_served() {
    # Start a hetserved daemon on an empty cache directory $1 in the
    # background; wait_served then sets addr once it listens.
    rm -f "$tmp/hetserved.addr"
    "$tmp/hetserved" -addr 127.0.0.1:0 -addr-file "$tmp/hetserved.addr" \
        -cache-dir "$1" 2>"$tmp/hetserved.log" &
    served_pid=$!
}

wait_served() {
    i=0
    while [ ! -s "$tmp/hetserved.addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ] || ! kill -0 "$served_pid" 2>/dev/null; then
            echo "hetserved did not start:" >&2
            cat "$tmp/hetserved.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(cat "$tmp/hetserved.addr")
}

start_served "$tmp/server-cache"

dist_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" run -exp fig7 -workloads barnes,radix -instr 40000 \
        "$@" >"$out"
}

dist_run "$tmp/dist-run1.txt" -cache-dir "$tmp/client-cache"
dist_run "$tmp/dist-run2.txt" -cache-dir "$tmp/client-cache" -metrics-out "$tmp/dist-run2.json"
cmp "$tmp/dist-run1.txt" "$tmp/dist-run2.txt" || {
    echo "cached rerun output differs from the first run" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/dist-run2.json"; then
    echo "cached rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/dist-run2.json" >&2
    exit 1
fi

# Wait for the daemon to publish its address (it starts in background
# while the cache runs above execute).
wait_served

dist_run "$tmp/dist-run3.txt" -remote "$addr"
cmp "$tmp/dist-run1.txt" "$tmp/dist-run3.txt" || {
    echo "remote run output differs from the local run" >&2
    cat "$tmp/hetserved.log" >&2
    exit 1
}

# Every other device kind crosses the wire too: a cmp, a gpu and a
# traffic run through the daemon must print the local run's bytes, and
# the daemon must have executed some of their jobs.
wire_check() {
    # $1: a name for the files; the hetcore command and its flags follow.
    name=$1; shift
    "$tmp/hetcore" "$@" >"$tmp/wire-$name-local.txt"
    "$tmp/hetcore" "$@" -remote "$addr" -metrics-out "$tmp/wire-$name.json" \
        >"$tmp/wire-$name-remote.txt"
    cmp "$tmp/wire-$name-local.txt" "$tmp/wire-$name-remote.txt" || {
        echo "remote $name run output differs from the local run" >&2
        cat "$tmp/hetserved.log" >&2
        exit 1
    }
    if ! grep -q '"engine_remote_jobs": [1-9]' "$tmp/wire-$name.json"; then
        echo "remote $name run executed no job on the daemon:" >&2
        grep '"engine_' "$tmp/wire-$name.json" >&2
        exit 1
    fi
}
wire_check cmp run -exp migration -workloads barnes -instr 40000
wire_check gpu run -exp fig10 -kernels Reduction
wire_check traffic traffic -instr 40000

echo "== soc gate (determinism + cached rerun) =="
# The SoC design-space search must render byte-identical tables across
# -jobs widths, and a second sweep against the same -cache-dir must
# simulate nothing: its components and compositions are all engine jobs,
# so they disk-cache like any figure suite.
soc_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" soc -workloads fft,radix -instr 40000 "$@" >"$out"
}

soc_run "$tmp/soc-jobs1.txt" -jobs 1 -cache-dir "$tmp/soc-cache" \
    -metrics-out "$tmp/soc-cold.json"
soc_run "$tmp/soc-jobs8.txt" -jobs 8 -cache-dir "$tmp/soc-cache" \
    -metrics-out "$tmp/soc-rerun.json"
cmp "$tmp/soc-jobs1.txt" "$tmp/soc-jobs8.txt" || {
    echo "soc search differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/soc-rerun.json"; then
    echo "cached soc rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/soc-rerun.json" >&2
    exit 1
fi
# The budget counters count each mix once, in the search that evaluated
# it; a rerun served from the cache evaluates none.
for want in '"soc_configs_evaluated": 913' '"soc_configs_over_budget": 1407'; do
    if ! grep -qE "$want,?\$" "$tmp/soc-cold.json"; then
        echo "cold soc search report does not read $want:" >&2
        grep '"soc_configs_' "$tmp/soc-cold.json" >&2
        exit 1
    fi
done
if grep -q '"soc_configs_evaluated"' "$tmp/soc-rerun.json"; then
    echo "cached soc rerun still counted evaluated mixes:" >&2
    grep '"soc_configs_' "$tmp/soc-rerun.json" >&2
    exit 1
fi
# A search served wholly from the cache adds no summary record.
if ! grep -q '"runs": 0,' "$tmp/soc-rerun.json"; then
    echo "cached soc rerun still reported run records:" >&2
    grep '"runs": [0-9]' "$tmp/soc-rerun.json" >&2
    exit 1
fi
# The dist gate's hetserved is still up: the same sweep through it must
# match the local one. soc keys are most of a daemon's traffic, so this
# checks the binary result codec across the wire on the commonest kind.
soc_run "$tmp/soc-remote.txt" -remote "$addr"
cmp "$tmp/soc-jobs1.txt" "$tmp/soc-remote.txt" || {
    echo "remote soc search differs from the local one" >&2
    cat "$tmp/hetserved.log" >&2
    exit 1
}

echo "== accel gate (soc -accel determinism + cached rerun) =="
# The accelerator search rides the same engine contract: -jobs widths
# must render byte-identical tables (now including the accel and
# socaccel comparisons), and a cached rerun must simulate nothing.
accel_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" soc -accel -workloads fft -instr 40000 "$@" >"$out"
}

accel_run "$tmp/accel-jobs1.txt" -jobs 1 -cache-dir "$tmp/accel-cache"
accel_run "$tmp/accel-jobs8.txt" -jobs 8 -cache-dir "$tmp/accel-cache" \
    -metrics-out "$tmp/accel-rerun.json"
cmp "$tmp/accel-jobs1.txt" "$tmp/accel-jobs8.txt" || {
    echo "accel search differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/accel-rerun.json"; then
    echo "cached accel rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/accel-rerun.json" >&2
    exit 1
fi
if ! grep -q 'TFET accelerator mix' "$tmp/accel-jobs1.txt"; then
    echo "socaccel verdict missing from soc -accel output" >&2
    exit 1
fi

echo "== traffic gate (determinism + cached rerun + baseline diff) =="
# The traffic scenario matrix rides the same engine contract: -jobs
# widths must render byte-identical tables and reports, and a second run
# against the same -cache-dir must simulate nothing. The simulation is
# deterministic, so the report must also match the committed baseline
# exactly: energy per request, latency quantiles and SLO accounting.
traffic_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" traffic -instr 40000 "$@" >"$out"
}

traffic_run "$tmp/traffic-jobs1.txt" -jobs 1 -cache-dir "$tmp/traffic-cache" \
    -o "$tmp/traffic-report1.json"
traffic_run "$tmp/traffic-jobs8.txt" -jobs 8 -cache-dir "$tmp/traffic-cache" \
    -o "$tmp/traffic-report2.json" -metrics-out "$tmp/traffic-rerun.json"
# The stdout tables differ only in the trailing wrote line.
grep -v '^wrote ' "$tmp/traffic-jobs1.txt" >"$tmp/traffic-jobs1.tbl"
grep -v '^wrote ' "$tmp/traffic-jobs8.txt" >"$tmp/traffic-jobs8.tbl"
cmp "$tmp/traffic-jobs1.tbl" "$tmp/traffic-jobs8.tbl" || {
    echo "traffic table differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
cmp "$tmp/traffic-report1.json" "$tmp/traffic-report2.json" || {
    echo "cached traffic rerun report is not byte-identical" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/traffic-rerun.json"; then
    echo "cached traffic rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/traffic-rerun.json" >&2
    exit 1
fi
if ! grep -q '"schema": "hetcore.traffic/v1"' "$tmp/traffic-report1.json"; then
    echo "traffic report missing its schema stamp" >&2
    exit 1
fi
"$tmp/hetcore" diff -tol 0 -rate-tol 0 scripts/baseline/BENCH_traffic.json "$tmp/traffic-report1.json"

echo "== load gate (hetcore load p99 vs baseline) =="
# Drive a short closed-loop job stream at a fresh daemon and gate the
# client-observed serving latency. The baseline is a measured run with
# these flags against a fresh daemon, so the one that served the gates
# above, its caches and heap warm, is replaced first. With -rate-tol 400
# the gate trips only when a latency quantile exceeds 5x the committed
# baseline (or any request errors against the zero-error baseline) —
# catching serialization bugs and accidental hot-path sleeps without
# flaking on host speed.
kill "$served_pid" 2>/dev/null
wait "$served_pid" 2>/dev/null || true
start_served "$tmp/load-cache"
wait_served
"$tmp/hetcore" load -addr "$addr" -duration 2s -concurrency 4 -cold 0.2 \
    -o "$tmp/BENCH_load.json" >/dev/null
"$tmp/hetcore" diff -rate-tol 400 scripts/baseline/BENCH_load.json "$tmp/BENCH_load.json"

kill "$served_pid" 2>/dev/null
served_pid=""

echo "CI OK"
