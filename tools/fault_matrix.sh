#!/bin/sh
# Fault-injection matrix: arms each fault point in turn (first hit, throw and
# fail modes) and drives sekitei_serve through it.  Every injected fault must
# classify into an answer -- exit codes 0..6 only (2 = loader faults surfaced
# as input errors) -- never a crash.
#
#   tools/fault_matrix.sh build/tools/sekitei_serve serial
#   tools/fault_matrix.sh build/tools/sekitei_serve concurrent
#
# serial      every plain-request point on tiny.sk with --preflight, then the
#             repair-path points through the diamond drift stream (they only
#             fire on repair requests; repair.preflight needs --preflight to
#             arm the cut).
# concurrent  the worker-path points on tiny.sk under 4 workers x 4 repeats
#             (the ThreadSanitizer leg).
#
# Prints "<point>:<mode> exit <code>" per cell; exits 1 if any cell crashed,
# 2 on bad usage.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <sekitei_serve> serial|concurrent" >&2
  exit 2
fi
serve=$1
data=$(cd "$(dirname "$0")/../examples/data" && pwd)
status=0

# run <instance> <points> [serve flags...]
run() {
  instance=$1
  points=$2
  shift 2
  for p in $points; do
    for m in throw fail; do
      SEKITEI_FAULTS="$p:1:$m" "$serve" "$data/media.sk" "$data/$instance" "$@" \
        > /dev/null
      code=$?
      echo "$p:$m exit $code"
      if [ "$code" -gt 6 ]; then
        echo "fault $p:$m crashed with exit $code" >&2
        status=1
      fi
    done
  done
}

case $2 in
  serial)
    run tiny.sk "loader.read cache.insert engine.job pool.job replay.validate preflight" \
      --preflight
    run diamond.sk "repair.survivors repair.plan repair.preflight" --drift --preflight
    ;;
  concurrent)
    run tiny.sk "cache.insert engine.job pool.job" --jobs 4 --repeat 4
    ;;
  *)
    echo "usage: $0 <sekitei_serve> serial|concurrent" >&2
    exit 2
    ;;
esac
exit $status
