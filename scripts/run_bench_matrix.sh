#!/usr/bin/env bash
# Dump the full real-thread benchmark matrix to a BENCH_real.json trajectory
# file: every registry lock on the "cs" microbenchmark, a contention sweep
# (threads = 1, 2, one-per-cluster, saturation, 2x and 4x oversubscription)
# of the fast-path locks against their baselines, TATAS, and the gcr
# admission twins -- so the low-contention fast-path win, the saturation
# non-regression, and the oversubscription collapse-vs-admission contrast
# land side by side -- a fast-path
# hysteresis sweep over the fission_limit x reengage_drains knobs, a lock x
# shard-count sweep of the "kv" application workload recorded as
# placed/unplaced pairs (the NUMA-placement ablation: identical configs
# differing only in numa_place, so a real NUMA box can diff first-touch
# placement against lock-carried NUMA awareness directly), a lock x threads
# sweep of the "kvnet" served workload (the same mix through loopback
# sockets and the epoll front-end), and every registry lock on the "alloc"
# (mmicro) workload plus a Zipf size-class ablation pair, merged into one
# JSON array.  Every record carries windows[] batch-length telemetry; kv
# and kvnet records add per-shard hit-rate per window.
#
#   scripts/run_bench_matrix.sh [--dry-run] [out.json]
#
# The lock and workload axes are enumerated from the cohort_bench binary
# (--list / --list-workloads), so this script cannot drift from the
# registries; --dry-run validates that enumeration and prints every run it
# would launch without executing any (CI runs it on each push).
#
# Environment knobs:
#   BUILD_DIR  cmake build directory holding cohort_bench   (default: build)
#   THREADS    worker threads per run                       (default: nproc)
#   DURATION   measured seconds per (lock, rep)             (default: 1)
#   REPS       repetitions per lock                         (default: 3)
#   KV_LOCKS   locks for the kv sweep
#                        (default: pthread C-TKT-TKT C-TKT-TKT-fp C-BO-MCS
#                         plus the compact locks cna reciprocating)
#   KV_SHARDS  shard counts for the kv sweep               (default: 1 4 16)
#   NET_LOCKS    locks for the kvnet served sweep
#                        (default: pthread C-TKT-TKT C-TKT-TKT-fp
#                         plus the compact locks cna reciprocating)
#   NET_THREADS  client connection counts for kvnet
#                        (default: "2 <THREADS>", deduplicated)
#   NET_IO_THREADS  server event-loop threads for kvnet    (default: 2)
#   NET_SHARDS      engine shards for kvnet                (default: 4)
#   SWEEP_LOCKS    locks for the contention sweep
#                        (default: TATAS plus each -fp lock and its baseline,
#                         every family=compact lock and its twin, and every
#                         family=gcr admission twin -- cross-checked below
#                         against --list-locks)
#   SWEEP_THREADS  thread counts for the contention sweep
#                        (default: "1 2 <clusters> <THREADS> <2x> <4x>",
#                         deduplicated; the oversubscribed points drive the
#                         gcr admission ablation)
#   FP_HYST_LOCK      lock for the hysteresis sweep (default: C-TKT-TKT-fp)
#   FP_FISSION_LIMITS fission_limit axis             (default: "2 8 32")
#   FP_REENGAGE_DRAINS reengage_drains axis          (default: "1 4 16")
#   ALLOC_SIZE_ZIPF   theta for the alloc size-class ablation (default: 1.1)
#   ALLOC_ZIPF_LOCKS  locks for that ablation (default: pthread C-TKT-TKT)
set -euo pipefail

cd "$(dirname "$0")/.."

DRY_RUN=0
OUT=BENCH_real.json
for arg in "$@"; do
  case "$arg" in
    --dry-run) DRY_RUN=1 ;;
    -h|--help) awk 'NR>1 && !/^#/{exit} NR>1{sub(/^# ?/,""); print}' "$0"; exit 0 ;;
    -*) echo "error: unknown option '$arg' (supported: --dry-run)" >&2; exit 2 ;;
    *) OUT=$arg ;;
  esac
done

BUILD_DIR=${BUILD_DIR:-build}
THREADS=${THREADS:-$(nproc)}
DURATION=${DURATION:-1}
REPS=${REPS:-3}
KV_LOCKS=${KV_LOCKS:-pthread C-TKT-TKT C-TKT-TKT-fp C-BO-MCS cna reciprocating}
KV_SHARDS=${KV_SHARDS:-1 4 16}
NET_LOCKS=${NET_LOCKS:-pthread C-TKT-TKT C-TKT-TKT-fp cna reciprocating}
NET_IO_THREADS=${NET_IO_THREADS:-2}
NET_SHARDS=${NET_SHARDS:-4}
FP_HYST_LOCK=${FP_HYST_LOCK:-C-TKT-TKT-fp}
FP_FISSION_LIMITS=${FP_FISSION_LIMITS:-2 8 32}
FP_REENGAGE_DRAINS=${FP_REENGAGE_DRAINS:-1 4 16}
ALLOC_SIZE_ZIPF=${ALLOC_SIZE_ZIPF:-1.1}
ALLOC_ZIPF_LOCKS=${ALLOC_ZIPF_LOCKS:-pthread C-TKT-TKT}

# Contention sweep axis: each fast-path lock, its non-fp baseline, and the
# TATAS reference, at 1 thread (uncontended latency), 2 (first contention),
# one per cluster (pure cross-cluster traffic), saturation ($THREADS), and
# 2x/4x oversubscription (more threads than CPUs -- where the gcr admission
# gate earns its keep and the plain locks collapse).  The compact
# (post-cohort) locks ride along so CNA / Reciprocating batching lands next
# to the cohort compositions at every contention level, and the gcr twins
# ride along so admission vs collapse lands in the same records.
SWEEP_LOCKS=${SWEEP_LOCKS:-TATAS C-TKT-TKT C-TKT-TKT-fp C-BO-MCS C-BO-MCS-fp C-MCS-MCS C-MCS-MCS-fp cna cna-fp reciprocating reciprocating-fp gcr-TATAS gcr-C-BO-MCS gcr-C-BO-MCS-fp gcr-C-MCS-MCS gcr-C-MCS-MCS-fp gcr-cna gcr-cna-fp gcr-reciprocating gcr-reciprocating-fp}
host_clusters=0
for node in /sys/devices/system/node/node[0-9]*; do
  [ -e "$node" ] && host_clusters=$((host_clusters + 1))
done
[ "$host_clusters" -ge 1 ] || host_clusters=1
SWEEP_THREADS=${SWEEP_THREADS:-1 2 $host_clusters $THREADS $((2 * THREADS)) $((4 * THREADS))}
SWEEP_THREADS=$(printf '%s\n' $SWEEP_THREADS | awk '!seen[$0]++' | tr '\n' ' ')
NET_THREADS=${NET_THREADS:-2 $THREADS}
NET_THREADS=$(printf '%s\n' $NET_THREADS | awk '!seen[$0]++' | tr '\n' ' ')

BENCH="$BUILD_DIR/cohort_bench"
if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR)" >&2
  exit 1
fi

# Enumerate both registries from the binary and cross-check this script's
# own axes against them, so a renamed lock or workload fails loudly here.
mapfile -t ALL_LOCKS < <("$BENCH" --list)
WORKLOADS=$("$BENCH" --list-workloads | awk '/^[a-z]/ { print $1 }')
for wl in cs kv kvnet alloc; do
  if ! grep -qx "$wl" <<<"$WORKLOADS"; then
    echo "error: workload '$wl' missing from $BENCH --list-workloads" >&2
    exit 1
  fi
done
for lock in $KV_LOCKS; do
  if ! printf '%s\n' "${ALL_LOCKS[@]}" | grep -qx "$lock"; then
    echo "error: KV_LOCKS entry '$lock' is not a registry lock (see $BENCH --list)" >&2
    exit 1
  fi
done
for lock in $NET_LOCKS $FP_HYST_LOCK $ALLOC_ZIPF_LOCKS; do
  if ! printf '%s\n' "${ALL_LOCKS[@]}" | grep -qx "$lock"; then
    echo "error: NET/FP/ALLOC lock '$lock' is not a registry lock (see $BENCH --list)" >&2
    exit 1
  fi
done
for lock in $SWEEP_LOCKS; do
  if ! printf '%s\n' "${ALL_LOCKS[@]}" | grep -qx "$lock"; then
    echo "error: SWEEP_LOCKS entry '$lock' is not a registry lock (see $BENCH --list)" >&2
    exit 1
  fi
done

# Descriptor coverage cross-check: every family=compact lock in the registry
# (and its -fp twin) must be on the contention-sweep axis, so a compact lock
# added to the descriptor table without matrix coverage fails loudly here.
COMPACT_LOCKS=$("$BENCH" --list-locks | awk -F'\t' '$2 == "compact" { print $1 }')
for lock in $COMPACT_LOCKS; do
  for want in "$lock" "$lock-fp"; do
    if ! grep -qxF "$want" <(printf '%s\n' $SWEEP_LOCKS); then
      echo "error: compact lock '$want' missing from SWEEP_LOCKS (descriptor says family=compact; see $BENCH --list-locks)" >&2
      exit 1
    fi
  done
done

# Same for the gcr admission twins: every family=gcr lock must be on the
# sweep axis, so the oversubscribed thread points always carry the
# admission-vs-collapse contrast for every wrapped family.
GCR_LOCKS=$("$BENCH" --list-locks | awk -F'\t' '$2 == "gcr" { print $1 }')
for lock in $GCR_LOCKS; do
  if ! grep -qxF "$lock" <(printf '%s\n' $SWEEP_LOCKS); then
    echo "error: gcr lock '$lock' missing from SWEEP_LOCKS (descriptor says family=gcr; see $BENCH --list-locks)" >&2
    exit 1
  fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

run() {  # run <output-file> <cohort_bench args...>
  local out=$1
  shift
  if [ "$DRY_RUN" = 1 ]; then
    echo "would run: $BENCH $*"
  else
    "$BENCH" "$@" > "$out"
  fi
}

# Lock-overhead matrix: every registry lock on the cs microbenchmark.
run "$tmpdir/cs.json" --all --threads "$THREADS" --duration "$DURATION" \
  --reps "$REPS" --json

# Contention sweep: the fast-path ablation across thread counts.  The
# single-thread records expose the fast-path latency win; the saturation
# records prove cohort batching survives the extra gate CAS.
sweep_lock_args=()
for lock in $SWEEP_LOCKS; do sweep_lock_args+=(--lock "$lock"); done
for t in $SWEEP_THREADS; do
  run "$tmpdir/sweep-$t.json" "${sweep_lock_args[@]}" --threads "$t" \
    --duration "$DURATION" --reps "$REPS" --json
done

# Application matrix: kv workload, lock x shard-count sweep, recorded as a
# placed/unplaced ablation pair per configuration (numa_place: false/true).
kv_lock_args=()
for lock in $KV_LOCKS; do kv_lock_args+=(--lock "$lock"); done
for shards in $KV_SHARDS; do
  run "$tmpdir/kv-$shards.json" --workload kv "${kv_lock_args[@]}" \
    --threads "$THREADS" --shards "$shards" --duration "$DURATION" \
    --reps "$REPS" --json
  run "$tmpdir/kv-$shards-placed.json" --workload kv "${kv_lock_args[@]}" \
    --threads "$THREADS" --shards "$shards" --duration "$DURATION" \
    --reps "$REPS" --numa-place --json
done

# Fast-path hysteresis sweep (ROADMAP "fast-path tuning sweep"): one -fp
# lock at saturation across the fission_limit x reengage_drains grid, so
# the engage/disengage oscillation cost is visible next to the 8/4 default.
for fl in $FP_FISSION_LIMITS; do
  for rd in $FP_REENGAGE_DRAINS; do
    run "$tmpdir/fp-hyst-$fl-$rd.json" --lock "$FP_HYST_LOCK" \
      --threads "$THREADS" --fission-limit "$fl" --reengage-drains "$rd" \
      --duration "$DURATION" --reps "$REPS" --json
  done
done

# Served-traffic matrix: the kv mix through loopback sockets and the epoll
# front-end, lock x client-connection count (server io threads fixed), so
# BENCH_real.json carries the paper's §4.2 experiment end to end next to
# the in-process kv numbers.
net_lock_args=()
for lock in $NET_LOCKS; do net_lock_args+=(--lock "$lock"); done
for t in $NET_THREADS; do
  run "$tmpdir/kvnet-$t.json" --workload kvnet "${net_lock_args[@]}" \
    --threads "$t" --shards "$NET_SHARDS" --io-threads "$NET_IO_THREADS" \
    --duration "$DURATION" --reps "$REPS" --json
done

# Allocator matrix: every registry lock on the mmicro loop (Table 2's axis).
run "$tmpdir/alloc.json" --workload alloc --all --threads "$THREADS" \
  --duration "$DURATION" --reps "$REPS" --json

# Size-class skew ablation (ROADMAP "Zipfian alloc size classes"): the same
# mmicro loop with Zipf(theta) sizes over the geometric class ladder,
# paired with the uniform records above.
alloc_zipf_args=()
for lock in $ALLOC_ZIPF_LOCKS; do alloc_zipf_args+=(--lock "$lock"); done
run "$tmpdir/alloc-zipf.json" --workload alloc "${alloc_zipf_args[@]}" \
  --threads "$THREADS" --size-zipf "$ALLOC_SIZE_ZIPF" \
  --duration "$DURATION" --reps "$REPS" --json

if [ "$DRY_RUN" = 1 ]; then
  echo "dry run: ${#ALL_LOCKS[@]} locks, workloads: $(echo $WORKLOADS | tr '\n' ' ')" >&2
  exit 0
fi

# Merge all record sets (cohort_bench prints a bare object for a single run,
# an array otherwise) into one flat array.
python3 - "$OUT" "$tmpdir"/*.json <<'EOF'
import json, sys
out, *parts = sys.argv[1:]
records = []
for part in parts:
    with open(part) as f:
        data = json.load(f)
    records.extend(data if isinstance(data, list) else [data])
with open(out, "w") as f:
    json.dump(records, f, indent=2)
    f.write("\n")
EOF

echo "wrote $OUT ($(wc -c < "$OUT") bytes)" >&2
