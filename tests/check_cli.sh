#!/usr/bin/env bash
# Flag-validation checks for the arl CLI, run by ctest (see CMakeLists.txt).
# Usage: check_cli.sh <path-to-arl-binary>
set -u

cli="$1"
case "$cli" in
  /*) ;;
  *) cli="$PWD/$cli" ;;  # the resume check re-runs emitted specs from a temp cwd
esac
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Exit-code contract: help and no-args print the reference and exit 0;
# unknown commands and malformed flag values uniformly exit 2.
out=$("$cli" 2>&1)
[ $? -eq 0 ] || fail "no-args should print usage and exit 0"
case "$out" in
  *usage:*) ;;
  *) fail "no-args output should contain the usage reference" ;;
esac
"$cli" help >/dev/null 2>&1
[ $? -eq 0 ] || fail "'arl help' should exit 0"
"$cli" --help >/dev/null 2>&1
[ $? -eq 0 ] || fail "'arl --help' should exit 0"
"$cli" frobnicate >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown command should exit 2"

# Pathological --threads values are usage errors, not thread storms.
for value in -1 257 100000 lots; do
  out=$("$cli" sweep --threads=$value --count=1 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "--threads=$value: expected exit 2, got $status"
  case "$out" in
    *threads*) ;;
    *) fail "--threads=$value error should mention the flag: $out" ;;
  esac
done

# Unknown --protocol values exit 2 with an error listing the registry.
out=$("$cli" sweep --protocol=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown protocol: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-protocol error should echo the offending name: $out" ;;
esac
for name in canonical classify binary-search tree-split randomized; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-protocol error should list '$name': $out" ;;
  esac
done

# Malformed protocol parameters exit 2 as well.
"$cli" sweep --protocol=binary-search:nope --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "malformed protocol parameter should exit 2"
"$cli" sweep --protocol=canonical:3 --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "parameter on a parameterless protocol should exit 2"

# The legacy shorthand conflicts with the explicit flag instead of being
# silently ignored.
"$cli" sweep --classify-only --protocol=canonical --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--classify-only with --protocol should exit 2"

# A mixed-protocol cross-product sweep runs and prints one comparison row
# per protocol.  (Exit 0 when every job verifies, 1 otherwise — baselines
# legitimately fail on out-of-model configurations.)
out=$("$cli" sweep --count=6 --family=staggered \
      --protocol=canonical --protocol=binary-search --protocol=randomized 2>&1)
status=$?
[ "$status" -le 1 ] || fail "mixed-protocol sweep should run, got exit $status"
for name in canonical binary-search randomized; do
  case "$out" in
    *"$name"*) ;;
    *) fail "sweep output should contain a '$name' row: $out" ;;
  esac
done

# Unknown families still exit 2 (pre-existing contract, kept).
"$cli" sweep --family=bogus --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown family should exit 2"

# --------------------------------------------------------------- workloads

# The registry listing command exits 0 and names every workload kind.
out=$("$cli" workloads 2>&1)
[ $? -eq 0 ] || fail "'arl workloads' should exit 0"
for name in random exhaustive family-g family-h family-s staggered grid torus \
            hypercube tree single-hop mutations; do
  case "$out" in
    *"$name"*) ;;
    *) fail "workloads listing should contain '$name': $out" ;;
  esac
done

# Bad --workload values exit 2 with an error echoing the offending name and
# listing the registry (symmetric to the --protocol contract).
out=$("$cli" sweep --workload=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown workload: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-workload error should echo the offending name: $out" ;;
esac
for name in random grid torus hypercube tree single-hop mutations exhaustive; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-workload error should list '$name': $out" ;;
  esac
done

# Malformed workload parameters exit 2 as well — including single-node
# shapes whose positive sigma could never be realized (they must fail at
# parse time, not mid-batch inside a worker).
for value in "random:n=0" "random:p=2" "random:n=4,n=5" "random:rows=3" "grid:rows=0" \
             "torus:rows=2,cols=3" "hypercube:d=21" "exhaustive:n=9" "mutations:" \
             "mutations:bogus" "random:" "random:n=1" "tree:n=1" "single-hop:n=1" \
             "grid:rows=1,cols=1" "random:fast=1" "random:n=8,fast=0"; do
  "$cli" sweep --workload="$value" --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workload=$value should exit 2"
done
"$cli" sweep --workload=random:n=1,sigma=0 --count=1 >/dev/null 2>&1
[ $? -eq 0 ] || fail "a one-node workload with sigma=0 should run and exit 0"

# Contradictory flag combinations are rejected with exit 2: the explicit
# workload axis versus the legacy alias and execution flags (a bare flag
# would silently override the spec's own key), and an explicit --count on
# a workload that counts itself.
for flag in --family=random --n=8 --sigma=2 --p=0.5 --model=nocd; do
  "$cli" sweep --workload=random $flag --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workload with $flag should exit 2"
done
"$cli" sweep --workload=exhaustive:n=3,tau=1 --count=5 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--count with a self-counting workload should exit 2"
"$cli" sweep --workload=exhaustive:n=3,tau=1 >/dev/null 2>&1
[ $? -eq 0 ] || fail "a self-counting workload without --count should run and exit 0"

# The legacy flags are aliases: byte-identical tables to the --workload
# spelling (execution circumstance rows filtered — including the trailing
# phase-timing block, which is all timings — and whitespace squeezed, as in
# the shard checks: column widths align to the timing rows' digits).
alias_filter() {
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads" | sed -E 's/ +/ /g; s/-+/-/g'
}
"$cli" sweep --count=8 --n=8 --sigma=2 --seed=3 > "$tmpdir/legacy.txt" 2>&1 ||
  fail "legacy random sweep should exit 0"
"$cli" sweep --count=8 --workload=random:n=8,p=0.3,sigma=2 --seed=3 > "$tmpdir/spec.txt" 2>&1 ||
  fail "workload random sweep should exit 0"
if ! diff <(alias_filter "$tmpdir/legacy.txt") <(alias_filter "$tmpdir/spec.txt") >/dev/null; then
  fail "--family=random tables should be byte-identical to --workload=random:..."
fi
"$cli" sweep --count=6 --family=staggered > "$tmpdir/legacy-stag.txt" 2>&1 ||
  fail "legacy staggered sweep should exit 0"
"$cli" sweep --count=6 --workload=staggered > "$tmpdir/spec-stag.txt" 2>&1 ||
  fail "workload staggered sweep should exit 0"
if ! diff <(alias_filter "$tmpdir/legacy-stag.txt") <(alias_filter "$tmpdir/spec-stag.txt") \
    >/dev/null; then
  fail "--family=staggered tables should be byte-identical to --workload=staggered"
fi

# A topology workload runs the whole distributed pipeline: shard reports
# carry its canonical name, and the merge is byte-identical to the
# unsharded tables (whitespace squeezed as in the sharded checks below,
# since column widths align to the filtered wall-time row's digits).
wfilter() {
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads" | sed -E 's/ +/ /g; s/-+/-/g'
}
wflags="--count=6 --workload=grid:rows=3,cols=3,sigma=2"
"$cli" sweep $wflags > "$tmpdir/wsingle.txt" 2>&1 ||
  fail "grid workload sweep should exit 0"
"$cli" sweep $wflags --shard=0/2 --out="$tmpdir/w0.txt" >/dev/null 2>&1 ||
  fail "grid workload shard 0/2 should exit 0"
"$cli" sweep $wflags --shard=1/2 --out="$tmpdir/w1.txt" >/dev/null 2>&1 ||
  fail "grid workload shard 1/2 should exit 0"
grep -q "sweep .* grid:rows=3,cols=3,sigma=2$" "$tmpdir/w0.txt" ||
  fail "shard report should carry the canonical workload name"
"$cli" merge "$tmpdir/w0.txt" "$tmpdir/w1.txt" > "$tmpdir/wmerged.txt" 2>&1 ||
  fail "grid workload merge should exit 0"
if ! diff <(wfilter "$tmpdir/wmerged.txt") <(wfilter "$tmpdir/wsingle.txt") >/dev/null; then
  fail "merged grid workload shards should print exactly the unsharded tables"
fi

# Bad --cache values exit 2 with a usage error.
for value in bogus -3 12cats 9999999999; do
  out=$("$cli" sweep --cache=$value --count=1 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "--cache=$value: expected exit 2, got $status"
  case "$out" in
    *cache*) ;;
    *) fail "--cache=$value error should mention the flag: $out" ;;
  esac
done

# The cache stats line appears exactly when the cache is enabled.
out=$("$cli" sweep --count=4 --n=6 --cache=on \
      --protocol=canonical --protocol=classify 2>&1)
[ $? -eq 0 ] || fail "cached sweep should verify and exit 0"
case "$out" in
  *"schedule cache:"*) ;;
  *) fail "--cache=on sweep should print the schedule cache stats line: $out" ;;
esac
out=$("$cli" sweep --count=4 --n=6 --cache=16 \
      --protocol=canonical --protocol=classify 2>&1)
[ $? -eq 0 ] || fail "capacity-cached sweep should verify and exit 0"
case "$out" in
  *"schedule cache:"*) ;;
  *) fail "--cache=16 sweep should print the schedule cache stats line: $out" ;;
esac
for flags in "" "--cache=off" "--cache=0"; do
  out=$("$cli" sweep --count=4 --n=6 $flags 2>&1)
  [ $? -eq 0 ] || fail "uncached sweep ($flags) should verify and exit 0"
  case "$out" in
    *"schedule cache:"*) fail "uncached sweep ($flags) must not print cache stats: $out" ;;
    *) ;;
  esac
done

# ------------------------------------------------------------ unknown flags

# Every subcommand rejects flags it does not read with exit 2 and names the
# offending flag: a misspelling, the retired --engine (the simulator loop is
# not a user setting) and submit's retired --store (every request that uses
# the server's cache uses its disk tier) must fail instead of being silently
# ignored.  Each case is "<flag the error names>:<command line>".
for case_ in "engine:sweep --count=1 --engine=scalar" \
             "store:submit --socket=$tmpdir/none.sock --store=off" \
             "thraeds:sweep --count=1 --thraeds=3 --bogus" \
             "engine:submit --socket=$tmpdir/none.sock --engine=scalar" \
             "fast:elect --fast" "verbose:workloads --verbose" \
             "fast:classify --fast" "fast:sweep --count=1 --fast" \
             "fast:submit --socket=$tmpdir/none.sock --fast"; do
  flag=${case_%%:*}
  args=${case_#*:}
  out=$("$cli" $args 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "arl $args: expected exit 2, got $status"
  case "$out" in
    *"unknown flag --$flag "*) ;;
    *) fail "arl $args: error should name --$flag: $out" ;;
  esac
done

# Exit <= 1: the randomized baseline legitimately fails verification on
# configurations outside its model, same as the mixed-protocol check.
eflags="--count=8 --n=8 --sigma=2 --seed=5 --protocol=canonical --protocol=randomized"
"$cli" sweep $eflags > "$tmpdir/eauto.txt" 2>&1
[ $? -le 1 ] || fail "mixed-protocol sweep should run"

# The sweep summary reports its own throughput (no bench run needed).
grep -q "node-rounds per second" "$tmpdir/eauto.txt" ||
  fail "sweep summary should print node-rounds per second"
grep -q "global rounds" "$tmpdir/eauto.txt" ||
  fail "sweep summary should print the global rounds total"

# ----------------------------------------------------------- sharded sweeps

# Malformed --shard values and conflicting distributed flags exit 2.
for value in bogus 2/2 0/0 1/ /2 1.5/2; do
  "$cli" sweep --shard=$value --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--shard=$value should exit 2"
done
"$cli" sweep --shard=0/2 --workers=2 --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--shard with --workers should exit 2"
"$cli" sweep --out="$tmpdir/x" --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--out without --shard should exit 2"
"$cli" sweep --shard=0/2 --out= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --out= should exit 2, not fall back to stdout"
for value in 0 257 bogus; do
  "$cli" sweep --workers=$value --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workers=$value should exit 2"
done

# Shard emission + merge reassembles the exact unsharded report (wall time,
# worker count and throughput are execution circumstances, filtered out;
# whitespace is squeezed because column widths align to the widest cell,
# which may be a filtered row's wall-time digits).
sweep_flags="--count=12 --n=8 --protocol=canonical --protocol=classify"
filter() {
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads" | sed -E 's/ +/ /g; s/-+/-/g'
}
"$cli" sweep $sweep_flags > "$tmpdir/single.txt" 2>&1 ||
  fail "unsharded reference sweep should exit 0"
"$cli" sweep $sweep_flags --shard=0/2 --out="$tmpdir/s0.txt" >/dev/null 2>&1 ||
  fail "shard 0/2 should run and exit 0"
"$cli" sweep $sweep_flags --shard=1/2 --out="$tmpdir/s1.txt" >/dev/null 2>&1 ||
  fail "shard 1/2 should run and exit 0"
head -1 "$tmpdir/s0.txt" | grep -q "arl-shard-report" ||
  fail "shard output should be a versioned shard report"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/s1.txt" > "$tmpdir/merged.txt" 2>&1 ||
  fail "merge of both shards should exit 0"
if ! diff <(filter "$tmpdir/merged.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "merged shard report should print exactly the unsharded sweep tables"
fi

# A shard report also lands on stdout when --out is absent.
"$cli" sweep $sweep_flags --shard=0/2 2>/dev/null | head -1 | grep -q "arl-shard-report" ||
  fail "--shard without --out should write the report to stdout"

# The local worker driver is the same pipeline end-to-end.
"$cli" sweep $sweep_flags --workers=2 > "$tmpdir/workers.txt" 2>&1 ||
  fail "--workers=2 sweep should exit 0"
if ! diff <(filter "$tmpdir/workers.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "--workers sweep should print exactly the unsharded sweep tables"
fi

# Bad merges are usage errors: nothing, unreadable, gap, overlap, corruption.
"$cli" merge >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge without files should exit 2"
"$cli" merge "$tmpdir/does-not-exist" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of a missing file should exit 2"
"$cli" merge "$tmpdir/s0.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge with a gap (missing shard) should exit 2"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/s0.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge with overlapping shards should exit 2"
sed 's/^arl-shard-report [0-9]*$/arl-shard-report 99/' "$tmpdir/s0.txt" > "$tmpdir/bad-version.txt"
out=$("$cli" merge "$tmpdir/bad-version.txt" "$tmpdir/s1.txt" 2>&1)
[ $? -eq 2 ] || fail "merge of a version-mismatched report should exit 2"
case "$out" in
  *version*) ;;
  *) fail "version-mismatch error should say so: $out" ;;
esac
head -5 "$tmpdir/s0.txt" > "$tmpdir/truncated.txt"
"$cli" merge "$tmpdir/truncated.txt" "$tmpdir/s1.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of a truncated report should exit 2"
"$cli" sweep $sweep_flags --seed=2 --shard=1/2 --out="$tmpdir/other-seed.txt" >/dev/null 2>&1 ||
  fail "other-seed shard should run and exit 0"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/other-seed.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of shards from different seeds should exit 2"

# ----------------------------------------------------------- artifact store

# Bad --store values exit 2: an empty path, "off" (the flag's absence is
# off) and the contradictory store-without-cache combination.
"$cli" sweep --store= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --store= should exit 2"
"$cli" sweep --store=off --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--store=off should exit 2 for sweep (it takes a directory)"
"$cli" sweep --store="$tmpdir/store" --cache=off --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--store with --cache=off should exit 2"

# A store-backed sweep prints the artifact store stats line, persists
# entries, and a second (cold-process) run preloads them: zero saves, and
# tables byte-identical to the storeless run.  (Cache/store stats lines are
# execution circumstances, filtered like the timing rows.)
store_filter() {
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads|schedule cache:|artifact store:" |
    grep -v '^$' | sed -E 's/ +/ /g; s/-+/-/g'
}
store_flags="--count=6 --n=8 --sigma=2 --seed=11 --protocol=canonical --protocol=classify"
"$cli" sweep $store_flags > "$tmpdir/nostore.txt" 2>&1 ||
  fail "storeless reference sweep should exit 0"
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "store-backed sweep should exit 0"
case "$out" in
  *"artifact store:"*) ;;
  *) fail "--store sweep should print the artifact store stats line: $out" ;;
esac
ls "$tmpdir/store"/*.arl >/dev/null 2>&1 || fail "--store should leave entry files behind"
if ls "$tmpdir/store"/*.tmp* >/dev/null 2>&1; then
  fail "--store must not leave tmp residue after a completed sweep"
fi
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "warm store-backed sweep should exit 0"
case "$out" in
  *"artifact store:"*" 0 saves"*) ;;
  *) fail "a warm store-backed sweep should save nothing: $out" ;;
esac
case "$out" in
  *"schedule cache:"*" 0 schedule builds"*) ;;
  *) fail "a preloaded sweep should build no schedule (promotions are not builds): $out" ;;
esac
echo "$out" > "$tmpdir/warmstore.txt"
if ! diff <(store_filter "$tmpdir/warmstore.txt") <(store_filter "$tmpdir/nostore.txt") >/dev/null
then
  fail "store-backed sweep tables should be byte-identical to the storeless run"
fi

# A corrupted store degrades to misses, never to wrong results.
for entry in "$tmpdir/store"/*.arl; do
  printf 'arl-art' > "$entry"
done
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "sweep over a corrupted store should still exit 0"
echo "$out" > "$tmpdir/corruptstore.txt"
if ! diff <(store_filter "$tmpdir/corruptstore.txt") <(store_filter "$tmpdir/nostore.txt") \
    >/dev/null; then
  fail "sweep over a corrupted store should still print the storeless tables"
fi

# A classify-only sweep repairs a damaged entry: the rerun rejects it,
# compiles and overwrites it, and the next rerun loads every entry.
repair_flags="--workload=random:n=10,p=0.3,sigma=3 --count=5 --protocol=classify --threads=1 --seed=3"
"$cli" sweep $repair_flags --store="$tmpdir/repair" >/dev/null 2>&1 ||
  fail "classify-only store-backed sweep should exit 0"
for entry in "$tmpdir/repair"/*.arl; do
  printf 'x' >> "$entry"
  break
done
"$cli" sweep $repair_flags --store="$tmpdir/repair" >/dev/null 2>&1 ||
  fail "classify-only sweep over a damaged entry should exit 0"
out=$("$cli" sweep $repair_flags --store="$tmpdir/repair" 2>&1)
[ $? -eq 0 ] || fail "classify-only sweep over the repaired store should exit 0"
case "$out" in
  *"artifact store: 5 loads, 0 misses, 0 rejected"*) ;;
  *) fail "a classify-only sweep should have rewritten the damaged entry: $out" ;;
esac

# -------------------------------------------------------- resumable sweeps

# Malformed or out-of-range --shard=B-E values exit 2.
for value in 5-3 3-3 1-2-3 a-b 1- -2; do
  "$cli" sweep --shard=$value --count=6 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--shard=$value should exit 2"
done
"$cli" sweep $sweep_flags --shard=0-999 >/dev/null 2>&1
[ $? -eq 2 ] || fail "a --shard range beyond the sweep's jobs should exit 2"

# An explicit job range emits a shard report mergeable with its complement,
# reproducing the unsharded tables exactly (sweep_flags has 24 jobs).
"$cli" sweep $sweep_flags --shard=0-10 --out="$tmpdir/r0.txt" >/dev/null 2>&1 ||
  fail "--shard=0-10 should run and exit 0"
"$cli" sweep $sweep_flags --shard=10-24 --out="$tmpdir/r1.txt" >/dev/null 2>&1 ||
  fail "--shard=10-24 should run and exit 0"
"$cli" merge "$tmpdir/r0.txt" "$tmpdir/r1.txt" > "$tmpdir/rmerged.txt" 2>&1 ||
  fail "merge of the two job ranges should exit 0"
if ! diff <(filter "$tmpdir/rmerged.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "merged job-range shards should print exactly the unsharded tables"
fi

# merge --missing: a complete cover reports completeness (exit 0, nothing
# on stdout); a partial one emits one exact re-run spec per gap.
out=$("$cli" merge --missing "$tmpdir/r0.txt" "$tmpdir/r1.txt" 2>/dev/null)
[ $? -eq 0 ] || fail "merge --missing over a complete cover should exit 0"
[ -z "$out" ] || fail "a complete cover should emit no re-run specs: $out"
out=$("$cli" merge --missing "$tmpdir/r0.txt" 2>/dev/null)
[ $? -eq 0 ] || fail "merge --missing over a partial cover should exit 0"
case "$out" in
  "arl sweep "*"--shard=10-24"*"--out=resume-10-24.txt"*) ;;
  *) fail "merge --missing should emit the exact gap spec: $out" ;;
esac

# The emitted spec re-runs the gap, and survivors + resumed shard merge to
# the exact uninterrupted tables — the SIGKILL recovery path end to end.
spec="${out#arl }"
(cd "$tmpdir" && eval "'$cli' $spec" >/dev/null 2>&1) ||
  fail "the emitted resume spec should run and exit 0"
"$cli" merge "$tmpdir/r0.txt" "$tmpdir/resume-10-24.txt" > "$tmpdir/resumed.txt" 2>&1 ||
  fail "merge of survivor + resumed shard should exit 0"
if ! diff <(filter "$tmpdir/resumed.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "resumed merge should print exactly the uninterrupted sweep tables"
fi

# ------------------------------------------------------------------ faults

# The fault registry listing exits 0 and names every fault kind.
out=$("$cli" faults 2>&1)
[ $? -eq 0 ] || fail "'arl faults' should exit 0"
for name in none drop corrupt crash adversarial-wake; do
  case "$out" in
    *"$name"*) ;;
    *) fail "faults listing should contain '$name': $out" ;;
  esac
done

# Bad --fault values exit 2 with an error echoing the offending name and
# listing the registry (the uniform flag contract: same as --workload).
out=$("$cli" sweep --fault=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown fault: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-fault error should echo the offending name: $out" ;;
esac
for name in drop corrupt crash adversarial-wake; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-fault error should list '$name': $out" ;;
  esac
done

# Malformed fault parameters exit 2 as well.
for value in "drop:" "drop:2" "drop:-0.1" "drop:abc" "drop:0.1,x" "corrupt:" \
             "crash:" "crash:x" "crash:1,0" "adversarial-wake:" "adversarial-wake:1.5" \
             "none:1" ""; do
  "$cli" sweep --fault="$value" --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--fault=$value should exit 2"
done

# --fault=none is the explicit spelling of the default: byte-identical
# output to the same sweep without the flag (nothing filtered but timings).
fault_ref_flags="--count=8 --n=8 --sigma=2 --seed=9 --protocol=canonical"
"$cli" sweep $fault_ref_flags > "$tmpdir/fault-none-a.txt" 2>&1 ||
  fail "fault-free reference sweep should exit 0"
"$cli" sweep $fault_ref_flags --fault=none > "$tmpdir/fault-none-b.txt" 2>&1 ||
  fail "--fault=none sweep should exit 0"
if ! diff <(alias_filter "$tmpdir/fault-none-a.txt") <(alias_filter "$tmpdir/fault-none-b.txt") \
    >/dev/null; then
  fail "--fault=none tables should be byte-identical to the flagless sweep"
fi

# A faulted sweep is deterministic across sharding and threading: shards
# merged print the unsharded tables, the report carries the canonical fault
# spelling, and `merge --missing` reproduces the --fault flag.
fault_flags="--count=12 --n=8 --seed=4 --protocol=canonical --fault=drop:0.1"
"$cli" sweep $fault_flags > "$tmpdir/fault-single.txt" 2>&1
[ $? -le 1 ] || fail "faulted sweep should run"
grep -q "^fault: drop:0.1" "$tmpdir/fault-single.txt" ||
  fail "a faulted sweep should print the fault summary line"
"$cli" sweep $fault_flags --threads=2 > "$tmpdir/fault-t2.txt" 2>&1
[ $? -le 1 ] || fail "faulted sweep at --threads=2 should run"
if ! diff <(alias_filter "$tmpdir/fault-single.txt") <(alias_filter "$tmpdir/fault-t2.txt") \
    >/dev/null; then
  fail "faulted sweep tables should be thread-count invariant"
fi
"$cli" sweep $fault_flags --shard=0/2 --out="$tmpdir/f0.txt" >/dev/null 2>&1
[ $? -le 1 ] || fail "faulted shard 0/2 should run"
"$cli" sweep $fault_flags --shard=1/2 --out="$tmpdir/f1.txt" >/dev/null 2>&1
[ $? -le 1 ] || fail "faulted shard 1/2 should run"
grep -q "^fault drop:0.1$" "$tmpdir/f0.txt" ||
  fail "faulted shard reports should carry the canonical fault line"
"$cli" merge "$tmpdir/f0.txt" "$tmpdir/f1.txt" > "$tmpdir/fault-merged.txt" 2>&1
[ $? -le 1 ] || fail "merge of faulted shards should run"
if ! diff <(alias_filter "$tmpdir/fault-merged.txt") <(alias_filter "$tmpdir/fault-single.txt") \
    >/dev/null; then
  fail "merged faulted shards should print exactly the unsharded tables"
fi
out=$("$cli" merge --missing "$tmpdir/f0.txt" 2>/dev/null)
case "$out" in
  *"--fault=drop:0.1"*) ;;
  *) fail "merge --missing should reproduce the --fault flag: $out" ;;
esac

# Faulted and unfaulted shards describe different sweeps: never merged.
"$cli" merge "$tmpdir/f0.txt" "$tmpdir/s1.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merging faulted with unfaulted shards should exit 2"

# ------------------------------------------------------------ observability

# The plain sweep prints the phase-timing block; flag misuse exits 2.
grep -q "^phase timings:" "$tmpdir/single.txt" ||
  fail "a plain sweep should print the phase timings block"
"$cli" sweep --metrics-out= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --metrics-out= should exit 2"
"$cli" sweep --trace= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --trace= should exit 2"
"$cli" sweep --metrics-out="$tmpdir/m.json" --shard=0/2 --count=4 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--metrics-out with --shard should exit 2"
"$cli" sweep --trace="$tmpdir/t.jsonl" --workers=2 --count=4 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--trace with --workers should exit 2"

# --metrics-out writes the fixed key set — every phase, every field, present
# whether or not the phase ran (bench_gate fails on asymmetric keys).
metrics_flags="--count=6 --n=8 --seed=7 --threads=1 --protocol=canonical --protocol=classify"
"$cli" sweep $metrics_flags --metrics-out="$tmpdir/metrics-a.json" >/dev/null 2>&1 ||
  fail "sweep --metrics-out should exit 0"
for key in schema jobs phase_classify_count phase_schedule_compile_count \
           phase_simulate_count phase_simulate_total_ms phase_simulate_p50_ms \
           phase_simulate_p90_ms phase_simulate_p99_ms phase_fault_inject_count \
           phase_cache_lookup_count \
           phase_cache_promote_count phase_store_load_count phase_store_save_count \
           phase_serve_queue_wait_count phase_serve_dispatch_count \
           injected_drops injected_corruptions injected_crashes delayed_wakeups; do
  grep -q "\"$key\"" "$tmpdir/metrics-a.json" ||
    fail "metrics snapshot should contain \"$key\": $(cat "$tmpdir/metrics-a.json")"
done

# Two identical single-threaded uncached runs gate cleanly against each
# other: the counts are exact-match fields, the timings informational.
"$cli" sweep $metrics_flags --metrics-out="$tmpdir/metrics-b.json" >/dev/null 2>&1 ||
  fail "second sweep --metrics-out should exit 0"
gate="$(dirname "$cli")/bench_gate"
if [ -x "$gate" ]; then
  "$gate" --committed="$tmpdir/metrics-a.json" --fresh="$tmpdir/metrics-b.json" >/dev/null 2>&1 ||
    fail "identical --threads=1 runs should bench_gate cleanly against each other"
fi

# --trace appends one JSON line per job, every line with the same key set.
"$cli" sweep --count=5 --n=8 --trace="$tmpdir/trace.jsonl" >/dev/null 2>&1 ||
  fail "sweep --trace should exit 0"
[ "$(wc -l < "$tmpdir/trace.jsonl")" -eq 5 ] ||
  fail "--trace should write one line per job, got $(wc -l < "$tmpdir/trace.jsonl")"
for key in '"job"' '"protocol"' '"config"' '"disposition"' '"simulate_ns"' \
           '"classify_ns"' '"schedule-compile_ns"'; do
  head -1 "$tmpdir/trace.jsonl" | grep -q "$key:" ||
    fail "trace lines should carry $key: $(head -1 "$tmpdir/trace.jsonl")"
done

# `arl trace` and `arl validate` replay the canonical DRIP with a trace
# sink attached: the per-round logs must match the committed goldens byte
# for byte, and the independent validator must accept both executions.
golden="$(cd "$(dirname "$0")" && pwd)/golden"
"$cli" trace --verbose "$golden/h2.cfg" > "$tmpdir/trace_h2_verbose.txt" 2>&1 ||
  fail "trace --verbose on h2.cfg should exit 0"
cmp -s "$tmpdir/trace_h2_verbose.txt" "$golden/trace_h2_verbose.txt" ||
  fail "trace --verbose on h2.cfg differs from golden/trace_h2_verbose.txt"
"$cli" trace "$golden/random12.cfg" > "$tmpdir/trace_random12.txt" 2>&1 ||
  fail "trace on random12.cfg should exit 0"
cmp -s "$tmpdir/trace_random12.txt" "$golden/trace_random12.txt" ||
  fail "trace on random12.cfg differs from golden/trace_random12.txt"
# `arl classify` is pinned byte for byte under both channel models: the
# partition, the leader and the Lemma 3.5 step counter.  g8.cfg (`arl gen
# --family=g --m=8`) refines for 8 iterations, so a wrong refinement charge
# moves its `steps:` line.
for config in g8 random12; do
  for model in cd nocd; do
    "$cli" classify --model=$model "$golden/$config.cfg" > "$tmpdir/classify.txt" 2>&1 ||
      fail "classify --model=$model on $config.cfg should exit 0"
    cmp -s "$tmpdir/classify.txt" "$golden/classify_${config}_${model}.txt" ||
      fail "classify --model=$model on $config.cfg differs from golden/classify_${config}_${model}.txt"
  done
done
for config in h2 random12; do
  out=$("$cli" validate "$golden/$config.cfg" 2>&1)
  case "$out" in
    "execution valid"*) ;;
    *) fail "validate on $config.cfg should print 'execution valid': $out" ;;
  esac
done

# Two nodes whose tags lie 2·10⁸ rounds apart: the election spans 8·10⁸
# global rounds but holds two transmissions.  Simulation cost and memory
# follow transmissions, so it verifies well inside the timeout; a simulator
# that pays per round runs out of time or memory here.
out=$(timeout 20 "$cli" elect "$golden/sigma2e8.cfg" 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "elect on sigma2e8.cfg should exit 0 within 20 s, got $status"
printf '%s\n' "$out" | grep -Eq '^verified: +ok$' ||
  fail "elect on sigma2e8.cfg should print 'verified: ok': $out"

if [ "$failures" -gt 0 ]; then
  exit 1
fi
echo "cli flag validation ok"
