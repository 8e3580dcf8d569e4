#!/usr/bin/env bash
# Runs every reproduction bench in order and tees the combined output,
# then distills it into BENCH_results.json (per-figure timings and
# cells-scanned counts) via tools/bench_to_json.py.
#
#   bench/run_all.sh [outfile] [extra flags passed to every bench]
#
# Example: bench/run_all.sh /tmp/bench.out --quick

set -u
SCRIPT_DIR="$(dirname "$0")"
BUILD_DIR="$SCRIPT_DIR/../build/bench"
OUT="${1:-bench_output.txt}"
shift || true

: > "$OUT"
# Run metadata, parsed into BENCH_results.json alongside the benches:
# the host's core count plus the pool modes the serving benches compare
# (see bench/serve_throughput.cc).
{
  echo "===== run_metadata ====="
  echo "# Run metadata"
  echo "host_cores=$(nproc) pool_modes=stealing,single-queue"
  echo
} | tee -a "$OUT"
for b in "$BUILD_DIR"/*; do
  # Executable regular files only: CMake drops CMakeFiles/ and other
  # directories (also "executable") into the same build dir.
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "===== $name =====" | tee -a "$OUT"
  if [ "$name" = "micro_kernels" ]; then
    # google-benchmark speaks --benchmark_* flags, not the figure
    # binaries' --quick/--rows; run it with its defaults so the
    # BM_* rows (incl. the BM_ProfileOverhead contract) always land
    # in BENCH_results.json.
    "$b" 2>&1 | tee -a "$OUT"
  else
    "$b" "$@" 2>&1 | tee -a "$OUT"
  fi
  echo | tee -a "$OUT"
done
echo "wrote $OUT"
# Repeat the core count at the end where it is hard to miss: on a 1-core
# host the serve_throughput pool-mode comparison is meaningless (both
# modes serialize), and bench_to_json.py annotates the JSON accordingly.
echo "host_cores=$(nproc)"

JSON="$(dirname "$OUT")/BENCH_results.json"
python3 "$SCRIPT_DIR/../tools/bench_to_json.py" "$OUT" -o "$JSON" \
  || echo "bench_to_json failed; text output is still in $OUT" >&2
