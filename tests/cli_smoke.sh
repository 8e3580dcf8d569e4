#!/usr/bin/env bash
# End-to-end smoke test for swope_cli; invoked by ctest with the binary
# path as $1.
set -eu
CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "cli_smoke: $1" >&2; exit 1; }

# help exits 0 and mentions every command
"$CLI" help | grep -q "mi-filter" || fail "help missing mi-filter"

# unknown command exits non-zero
if "$CLI" frobnicate 2>/dev/null; then fail "unknown command accepted"; fi

# generate a small binary dataset
"$CLI" gen --preset=cdc --rows=5000 --seed=3 --out="$TMP/d.swpb" \
  | grep -q "wrote 5000 x 100" || fail "gen binary"

# and a CSV flavor
"$CLI" gen --preset=hus --rows=500 --seed=3 --out="$TMP/d.csv" \
  | grep -q "wrote 500 x 107" || fail "gen csv"

# info prints the shape and the exact resident footprint
"$CLI" info --in="$TMP/d.swpb" | grep -q "rows:    5000" || fail "info rows"
"$CLI" info --in="$TMP/d.swpb" | grep -q "memory:  " || fail "info memory"

# convert: CSV -> SWPB -> CSV round-trips losslessly
"$CLI" convert --in="$TMP/d.csv" --out="$TMP/rt.swpb" \
  | grep -q "converted .* (500 rows, 107 columns)" || fail "convert to swpb"
"$CLI" convert --in="$TMP/rt.swpb" --out="$TMP/rt.csv" \
  | grep -q "converted" || fail "convert to csv"
diff "$TMP/d.csv" "$TMP/rt.csv" || fail "convert round trip not lossless"

# convert: SWPB -> SWPB re-encode reads back with identical query answers
"$CLI" convert --in="$TMP/d.swpb" --out="$TMP/re.swpb" >/dev/null \
  || fail "convert swpb re-encode"
"$CLI" topk --in="$TMP/d.swpb" --k=5 | grep -v '^-- ' > "$TMP/orig.txt"
"$CLI" topk --in="$TMP/re.swpb" --k=5 | grep -v '^-- ' > "$TMP/reenc.txt"
diff "$TMP/orig.txt" "$TMP/reenc.txt" || fail "re-encoded answers differ"

# convert in place: the heap loader copies the table out of its file
# before returning, and the writer renames a finished temp file over its
# target, so rewriting that same file reproduces it byte for byte
cp "$TMP/d.swpb" "$TMP/inplace.swpb"
"$CLI" convert --in="$TMP/inplace.swpb" --out="$TMP/inplace.swpb" \
  >/dev/null || fail "convert in place"
cmp "$TMP/d.swpb" "$TMP/inplace.swpb" || fail "in-place re-encode differs"

# convert exit codes: missing flag is usage (2), missing input is runtime (1)
set +e
"$CLI" convert --in="$TMP/d.csv" 2>/dev/null
[ $? -eq 2 ] || fail "convert without --out should exit 2"
"$CLI" convert --in="$TMP/nope.csv" --out="$TMP/x.swpb" 2>/dev/null
[ $? -eq 1 ] || fail "convert missing input should exit 1"
set -e

# approximate and exact queries run and report attributes
"$CLI" topk --in="$TMP/d.swpb" --k=3 | grep -q -- "-- 3 attributes" \
  || fail "topk"
"$CLI" topk --in="$TMP/d.swpb" --k=3 --exact | grep -q -- "-- 3 attributes" \
  || fail "exact topk"
"$CLI" filter --in="$TMP/d.swpb" --eta=2.0 | grep -q "attributes," \
  || fail "filter"
"$CLI" mi-topk --in="$TMP/d.swpb" --target=cdc_a0 --k=2 \
  | grep -q -- "-- 2 attributes" || fail "mi-topk by name"
"$CLI" mi-topk --in="$TMP/d.swpb" --target=5 --k=2 --exact \
  | grep -q -- "-- 2 attributes" || fail "mi-topk by index"
"$CLI" nmi-topk --in="$TMP/d.swpb" --target=5 --k=2 \
  | grep -q -- "-- 2 attributes" || fail "nmi-topk"
"$CLI" mi-filter --in="$TMP/d.swpb" --target=5 --eta=0.1 \
  | grep -q "attributes," || fail "mi-filter"

# CSV input path works end to end
"$CLI" topk --in="$TMP/d.csv" --k=2 | grep -q -- "-- 2 attributes" \
  || fail "csv topk"

# --threads=N parallelizes candidate updates without changing the answer
# (drop the summary line: it carries wall-clock ms)
"$CLI" topk --in="$TMP/d.swpb" --k=5 | grep -v '^-- ' > "$TMP/serial.txt"
"$CLI" topk --in="$TMP/d.swpb" --k=5 --threads=4 | grep -v '^-- ' \
  > "$TMP/parallel.txt"
diff "$TMP/serial.txt" "$TMP/parallel.txt" || fail "--threads changed answer"
"$CLI" mi-topk --in="$TMP/d.swpb" --target=5 --k=3 | grep -v '^-- ' \
  > "$TMP/serial.txt"
"$CLI" mi-topk --in="$TMP/d.swpb" --target=5 --k=3 --threads=4 \
  | grep -v '^-- ' > "$TMP/parallel.txt"
diff "$TMP/serial.txt" "$TMP/parallel.txt" \
  || fail "mi --threads changed answer"

# --trace prints a per-round convergence table whose deterministic
# columns (everything but the trailing ms column) are byte-identical
# between 1-thread and 4-thread runs
"$CLI" topk --in="$TMP/d.swpb" --k=3 --trace | grep -v '^-- ' \
  | awk 'NF > 1 { $NF=""; print }' > "$TMP/trace1.txt"
"$CLI" topk --in="$TMP/d.swpb" --k=3 --trace --threads=4 | grep -v '^-- ' \
  | awk 'NF > 1 { $NF=""; print }' > "$TMP/trace4.txt"
grep -q "round" "$TMP/trace1.txt" || fail "--trace printed no table"
grep -q "max_bias" "$TMP/trace1.txt" || fail "--trace missing max_bias"
[ "$(wc -l < "$TMP/trace1.txt")" -ge 2 ] || fail "--trace has no rounds"
diff "$TMP/trace1.txt" "$TMP/trace4.txt" \
  || fail "--trace differs across thread counts"

# missing file is a clean error
if "$CLI" topk --in="$TMP/nope.swpb" --k=1 2>/dev/null; then
  fail "missing file accepted"
fi

# bad target is a clean error
if "$CLI" mi-topk --in="$TMP/d.swpb" --target=zzz --k=1 2>/dev/null; then
  fail "bad target accepted"
fi

# exit codes are distinct: usage errors exit 2, runtime failures exit 1
set +e
"$CLI" frobnicate 2>/dev/null
[ $? -eq 2 ] || fail "unknown command should exit 2"
"$CLI" topk --k=1 2>/dev/null   # missing --in: usage
[ $? -eq 2 ] || fail "missing flag should exit 2"
"$CLI" topk --in="$TMP/nope.swpb" --k=1 2>/dev/null   # missing file: runtime
[ $? -eq 1 ] || fail "missing file should exit 1"
set -e

# diagnostics go to stderr, never stdout
"$CLI" topk --in="$TMP/nope.swpb" --k=1 \
  >"$TMP/out.txt" 2>"$TMP/err.txt" || true
[ ! -s "$TMP/out.txt" ] || fail "error text leaked to stdout"
grep -q "swope_cli:" "$TMP/err.txt" || fail "no diagnostic on stderr"

# serve mode: line protocol in, one JSON object per line out
printf '%s\n' \
  "load name=d path=$TMP/d.swpb" \
  "query dataset=d kind=entropy-topk k=2" \
  "query dataset=d kind=entropy-topk k=2" \
  "query dataset=d kind=mi-topk target=cdc_a0 k=2" \
  "query dataset=ghost kind=entropy-topk k=1" \
  "stats" \
  "quit" \
  | "$CLI" serve > "$TMP/serve.out" || fail "serve exited non-zero"
grep -q '"ok":true,"op":"load"' "$TMP/serve.out" || fail "serve load"
[ "$(grep -c '"op":"query"' "$TMP/serve.out")" -eq 3 ] \
  || fail "serve query count"
grep -q '"cache_hit":true' "$TMP/serve.out" || fail "serve cache hit"
grep -q '"ok":false' "$TMP/serve.out" || fail "serve in-band error"
grep -q '"result_cache_hits":1' "$TMP/serve.out" || fail "serve stats"
# bit-packed storage: the cdc table (5000 rows x 100 cols, supports
# <= 1000 -> <= 10 bits/code) must stay at or below 40% of the
# 4-bytes-per-code footprint (2,000,000 bytes) the old estimate charged
resident="$(grep -o '"resident_bytes":[0-9]*' "$TMP/serve.out" \
  | head -1 | cut -d: -f2)"
[ -n "$resident" ] || fail "serve stats missing resident_bytes"
[ "$resident" -gt 0 ] || fail "resident_bytes is zero"
[ "$resident" -le 800000 ] \
  || fail "resident_bytes $resident exceeds 40% of unpacked footprint"
# serve: a misspelt key is an in-band error that names it, not a query
# run at the default epsilon
printf '%s\n' \
  "load name=d path=$TMP/d.swpb" \
  "query dataset=d kind=entropy-topk k=3 epsilom=0.01" \
  | "$CLI" serve > "$TMP/misspelt.out" || fail "serve exited non-zero"
tail -1 "$TMP/misspelt.out" | grep -q '^{"ok":false' \
  || fail "serve accepted a misspelt key"
grep -q 'unknown argument epsilom' "$TMP/misspelt.out" \
  || fail "misspelt key not named"
# query responses carry the full QueryStats block
for field in '"stats":{' '"final_sample_size":' '"iterations":' \
             '"cells_scanned":' '"candidates_remaining":'; do
  grep -F -q "$field" "$TMP/serve.out" || fail "serve missing $field"
done
# every stdout line is JSON (starts with '{')
if grep -qv '^{' "$TMP/serve.out"; then fail "serve stdout not JSON"; fi

# metrics op: after a query burst the Prometheus exposition carries
# nonzero latency-histogram counts, cache counters, and pool stats, and
# the JSON snapshot rides along; trace=1 attaches per-round rows
printf '%s\n' \
  "load name=d path=$TMP/d.swpb" \
  "query dataset=d kind=entropy-topk k=2" \
  "query dataset=d kind=entropy-topk k=2" \
  "query dataset=d kind=entropy-topk k=2" \
  "query dataset=d kind=entropy-topk k=3 trace=1" \
  "metrics" \
  "quit" \
  | "$CLI" serve > "$TMP/metrics.out" || fail "metrics serve exited non-zero"
grep -q '"ok":true,"op":"metrics"' "$TMP/metrics.out" || fail "metrics op"
grep -F -q '"prometheus":"' "$TMP/metrics.out" || fail "metrics prometheus"
grep -F -q '"snapshot":{' "$TMP/metrics.out" || fail "metrics snapshot"
grep -F -q 'swope_engine_queries_ok_total 4' "$TMP/metrics.out" \
  || fail "metrics queries_ok"
grep -F -q \
  'swope_engine_query_latency_ms_count{kind=\"entropy-topk\"} 4' \
  "$TMP/metrics.out" || fail "metrics latency histogram"
grep -F -q 'swope_cache_hits_total{cache=\"result\"} 2' "$TMP/metrics.out" \
  || fail "metrics cache hits"
grep -F -q 'swope_cache_misses_total{cache=\"result\"} 2' "$TMP/metrics.out" \
  || fail "metrics cache misses"
grep -F -q 'swope_pool_tasks_total{pool=\"executor\"}' "$TMP/metrics.out" \
  || fail "metrics pool stats"
grep -F -q '"trace":[{"round":1,' "$TMP/metrics.out" \
  || fail "serve trace rows"

# serve with intra-query threads answers identically to serial serve --
# including with profile=0 spelled out, which must not perturb a byte of
# any reply across thread counts or pool modes
printf '%s\n' \
  "load name=d path=$TMP/d.swpb" \
  "query dataset=d kind=entropy-topk k=3" \
  "query dataset=d kind=nmi-topk target=cdc_a0 k=2" \
  "query dataset=d kind=mi-topk target=cdc_a0 k=2 profile=0" \
  "quit" > "$TMP/serve.req"
"$CLI" serve < "$TMP/serve.req" > "$TMP/serve1.out" \
  || fail "serial serve exited non-zero"
"$CLI" serve --intra-threads=4 < "$TMP/serve.req" > "$TMP/serve4.out" \
  || fail "parallel serve exited non-zero"
diff "$TMP/serve1.out" "$TMP/serve4.out" \
  || fail "--intra-threads changed serve answers"
"$CLI" serve --pool-mode=single-queue < "$TMP/serve.req" \
  > "$TMP/servesq.out" || fail "single-queue serve exited non-zero"
diff "$TMP/serve1.out" "$TMP/servesq.out" \
  || fail "--pool-mode changed serve answers"
"$CLI" serve --intra-threads=4 --pool-mode=single-queue < "$TMP/serve.req" \
  > "$TMP/servesq4.out" || fail "single-queue+intra serve exited non-zero"
diff "$TMP/serve1.out" "$TMP/servesq4.out" \
  || fail "pool-mode x intra-threads changed serve answers"
grep -q '"profile":' "$TMP/serve1.out" \
  && fail "profile=0 reply leaked a profile block"

# profile=1 attaches a per-stage breakdown; the same line without it is
# byte-identical to the profile=0 reply above (cache is per-process, so
# each run below starts cold)
printf '%s\n' \
  "load name=d path=$TMP/d.swpb" \
  "query dataset=d kind=entropy-topk k=3 profile=1" \
  "query dataset=d kind=entropy-topk k=3 profile=1" \
  "events" \
  "stats" \
  "quit" \
  | "$CLI" serve --slow-query-ms=0.000001 --event-log-capacity=64 \
  > "$TMP/profile.out" || fail "profile serve exited non-zero"
grep -q '"profile":{"stages":\[' "$TMP/profile.out" \
  || fail "profile=1 reply missing stage breakdown"
grep -q '"stage":"count"' "$TMP/profile.out" || fail "profile missing count"
grep -q '"stage_sum_ms":' "$TMP/profile.out" || fail "profile missing sum"
grep -q '"wall_ms":' "$TMP/profile.out" || fail "profile missing wall"
# the profiled repeat is a cache hit and carries no profile block
[ "$(grep -c '"profile":{' "$TMP/profile.out")" -eq 1 ] \
  || fail "cache hit carried a profile block"
# events op: dataset load, admission, completion, and the slow-query
# capture (threshold is ~0) all appear, newest last
grep -q '"ok":true,"op":"events","total":' "$TMP/profile.out" \
  || fail "events op"
for kind in dataset-load query-admit query-complete slow-query; do
  grep -q "\"kind\":\"$kind\"" "$TMP/profile.out" \
    || fail "events missing $kind"
done
grep -q 'stages:' "$TMP/profile.out" || fail "slow-query detail w/o stages"
# stats surface the event count and worker utilization telemetry
grep -q '"events_logged":' "$TMP/profile.out" || fail "stats events_logged"
grep -q '"executor_utilization":' "$TMP/profile.out" \
  || fail "stats executor_utilization"

# ---- sketch path, u > 1000 rejection, and streaming ingest ----

# a high-cardinality CSV: 'hi' carries 110000 distinct values (u >= 100k)
# over 120000 rows; 'lo' is a 7-value control column
awk 'BEGIN { print "hi,lo";
  for (i = 0; i < 120000; i++) printf "u%d,v%d\n", i % 110000, i % 7 }' \
  > "$TMP/big.csv"

# the exact path refuses u > 1000 with an actionable message naming the
# column and its support (usage error: exit 2)
set +e
"$CLI" topk --in="$TMP/big.csv" --k=2 --max-support=0 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "high-support exact query should exit 2"
set -e
grep -q "'hi'" "$TMP/err.txt" || fail "rejection does not name the column"
grep -q "support 110000" "$TMP/err.txt" \
  || fail "rejection does not state the support"
grep -q "sketch_epsilon" "$TMP/err.txt" \
  || fail "rejection does not point at the sketch path"

# --sketch-epsilon admits the column: 'hi' (~16.7 bits) must outrank the
# control and both rows carry [lower, upper] intervals
"$CLI" topk --in="$TMP/big.csv" --k=2 --sketch-epsilon=0.01 \
  > "$TMP/sketch.txt" || fail "sketch topk failed"
head -1 "$TMP/sketch.txt" | grep -q "^hi " || fail "sketch topk ranks hi last"
grep "^lo " "$TMP/sketch.txt" | grep -q '\[' || fail "sketch topk intervals"

# sketch: attach count-min sidecars and persist them as SWPB v3
"$CLI" sketch --in="$TMP/big.csv" --out="$TMP/big.swpb" \
  | grep -q "sidecar bytes" || fail "sketch command"
"$CLI" info --in="$TMP/big.swpb" | grep -q "rows:.*120000" \
  || fail "sketched file info"

# append: lossless streaming append updates rows and sidecars in place
"$CLI" append --in="$TMP/big.swpb" --row=u0,v0 --out="$TMP/big2.swpb" \
  | grep -q "appended 1 rows" || fail "append command"
"$CLI" info --in="$TMP/big2.swpb" | grep -q "rows:.*120001" \
  || fail "append did not add the row"

# serve: the sketch path is reported in JSON stats, and ingest appends
# rows then re-answers without serving the stale cached result
printf '%s\n' \
  "load name=big path=$TMP/big.swpb sketch-epsilon=0.01" \
  "query dataset=big kind=entropy-topk k=2 sketch-epsilon=0.01" \
  "query dataset=big kind=entropy-topk k=2 sketch-threshold=200000" \
  "ingest dataset=big row=u7,v3" \
  "query dataset=big kind=entropy-topk k=2 sketch-epsilon=0.01" \
  "ingest dataset=big" \
  "ingest dataset=big row=u7,v3 row=u8,v4 row=u7,v3" \
  "query dataset=big kind=entropy-topk k=2 k=3" \
  "stats" \
  "quit" \
  | "$CLI" serve > "$TMP/sketch_serve.out" \
  || fail "sketch serve exited non-zero"
grep -q '"ok":true,"op":"load"' "$TMP/sketch_serve.out" \
  || fail "serve sketch load"
grep -q '"sketch_candidates":1,"path":"sketch"' "$TMP/sketch_serve.out" \
  || fail "serve sketch path not reported"
grep -q '"sketch_candidates":0,"path":"exact"' "$TMP/sketch_serve.out" \
  || fail "serve exact path not reported"
grep -q '"ok":true,"op":"ingest","dataset":"big","appended":1' \
  "$TMP/sketch_serve.out" || fail "serve ingest"
# the post-ingest repeat of the first query must re-execute (the
# fingerprint rotated), so this session never serves a cache hit
if grep -q '"cache_hit":true' "$TMP/sketch_serve.out"; then
  fail "ingest did not invalidate the result cache"
fi
# ingest with no rows is an in-band error, not a crash
grep -q '"ok":false,"code":"Invalid argument","error":"ingest:' \
  "$TMP/sketch_serve.out" || fail "empty ingest should fail in-band"
# repeated row= arguments each append a row; any other repeated key is an
# in-band error
grep -q '"ok":true,"op":"ingest","dataset":"big","appended":3,"rows":120004' \
  "$TMP/sketch_serve.out" || fail "repeated row= should append every row"
grep -q '"ok":false,"code":"Invalid argument","error":"argument k given more than once"' \
  "$TMP/sketch_serve.out" || fail "a repeated k= should fail in-band"
grep -q '"ingest_rows":4' "$TMP/sketch_serve.out" || fail "stats ingest_rows"
grep -q '"queries_sketch":2' "$TMP/sketch_serve.out" \
  || fail "stats queries_sketch"
sketch_bytes="$(grep -o '"sketch_bytes":[0-9]*' "$TMP/sketch_serve.out" \
  | head -1 | cut -d: -f2)"
[ -n "$sketch_bytes" ] || fail "stats missing sketch_bytes"
[ "$sketch_bytes" -gt 0 ] || fail "sketch_bytes is zero"

# ---- mmap-loaded storage (docs/STORAGE.md) ----

# info --mmap reports the byte split: payloads borrowed from the mapping
# are "mapped", only dictionaries/metadata stay heap-"memory"
"$CLI" info --in="$TMP/d.swpb" --mmap > "$TMP/info_mmap.txt" \
  || fail "info --mmap failed"
grep -q "mapped:  " "$TMP/info_mmap.txt" || fail "info --mmap no mapped line"
mapped="$(grep "mapped:" "$TMP/info_mmap.txt" | awk '{print $2}')"
heap="$(grep "memory:" "$TMP/info_mmap.txt" | awk '{print $2}')"
[ "$mapped" -gt 0 ] || fail "info --mmap mapped bytes zero"
[ "$heap" -lt "$mapped" ] || fail "info --mmap heap not smaller than mapped"
# the owned load of the same file reports zero mapped bytes
"$CLI" info --in="$TMP/d.swpb" | grep -q "mapped:" \
  && fail "owned info grew a mapped line"

# serve: load mmap=1 reports the split in the load reply and in stats
printf '%s\n' \
  "load name=d path=$TMP/d.swpb mmap=1" \
  "query dataset=d kind=entropy-topk k=3" \
  "stats" \
  "quit" \
  | "$CLI" serve > "$TMP/mmap_serve.out" || fail "mmap serve exited non-zero"
grep -q '"ok":true,"op":"load"' "$TMP/mmap_serve.out" || fail "mmap load"
load_mapped="$(grep -o '"mapped_bytes":[0-9]*' "$TMP/mmap_serve.out" \
  | head -1 | cut -d: -f2)"
load_resident="$(grep -o '"resident_bytes":[0-9]*' "$TMP/mmap_serve.out" \
  | head -1 | cut -d: -f2)"
[ "$load_mapped" -gt 0 ] || fail "mmap load reply mapped_bytes zero"
[ "$load_resident" -lt "$load_mapped" ] \
  || fail "mmap load reply resident not smaller than mapped"
[ "$(grep -c '"mapped_bytes":'"$load_mapped" "$TMP/mmap_serve.out")" -ge 2 ] \
  || fail "stats mapped_bytes disagrees with load reply"

# golden-answer contract: owned and mapped storage serve byte-identical
# query replies, across intra-thread counts and both pool modes
printf '%s\n' \
  "query dataset=d kind=entropy-topk k=3" \
  "query dataset=d kind=mi-topk target=cdc_a0 k=2" \
  "query dataset=d kind=entropy-filter eta=2.0" \
  "quit" > "$TMP/golden.req"
{ echo "load name=d path=$TMP/d.swpb"; cat "$TMP/golden.req"; } \
  > "$TMP/golden_owned.req"
{ echo "load name=d path=$TMP/d.swpb mmap=1"; cat "$TMP/golden.req"; } \
  > "$TMP/golden_mapped.req"
for opts in "" "--intra-threads=4" "--pool-mode=single-queue" \
            "--intra-threads=4 --pool-mode=single-queue"; do
  # shellcheck disable=SC2086
  "$CLI" serve $opts < "$TMP/golden_owned.req" \
    | grep '"op":"query"' > "$TMP/golden_owned.out" \
    || fail "golden owned serve ($opts)"
  # shellcheck disable=SC2086
  "$CLI" serve $opts < "$TMP/golden_mapped.req" \
    | grep '"op":"query"' > "$TMP/golden_mapped.out" \
    || fail "golden mapped serve ($opts)"
  diff "$TMP/golden_owned.out" "$TMP/golden_mapped.out" \
    || fail "owned vs mapped answers differ ($opts)"
done

# a dataset whose mapped footprint exceeds the registry heap budget
# still loads and answers: mapped bytes are OS-paged, not budgeted
"$CLI" gen --preset=cdc --rows=40000 --seed=5 --out="$TMP/big_map.swpb" \
  >/dev/null || fail "gen big_map"
printf '%s\n' \
  "load name=big path=$TMP/big_map.swpb mmap=1" \
  "query dataset=big kind=entropy-topk k=3" \
  "stats" \
  "quit" \
  | "$CLI" serve --memory-budget-mb=1 > "$TMP/over_budget.out" \
  || fail "over-budget mmap serve exited non-zero"
grep -q '"ok":true,"op":"load"' "$TMP/over_budget.out" \
  || fail "over-budget mmap load refused"
grep -q '"ok":true,"op":"query"' "$TMP/over_budget.out" \
  || fail "over-budget mmap query failed"
big_mapped="$(grep -o '"mapped_bytes":[0-9]*' "$TMP/over_budget.out" \
  | head -1 | cut -d: -f2)"
[ "$big_mapped" -gt 1048576 ] \
  || fail "big_map not actually larger than the 1 MiB budget"

# profile=1 replies carry the per-query allocation count (0 in
# production binaries -- the counting interposer only links into
# tests/alloc_regression_test)
grep -q '"allocs":' "$TMP/profile.out" || fail "profile missing allocs"

echo "cli_smoke: OK"
