#!/bin/sh
# Staged CI pipeline.
#
#   ./ci.sh [STAGE ...]       with STAGE in:
#     build   compile everything
#     test    unit/property tests + fault-injection self-test
#     smoke   end-to-end runs: telemetry, profiling, checkpointing,
#             parallel determinism, signature determinism, --verify
#             and planted-mutant refutation on cps, the cps goldens
#             (global, keep-initial, --window 16), hostile inputs
#     fuzz    differential fuzz campaign + injected-fault catch
#     serve   batch service drain + crash, kill -TERM and kill -KILL legs
#     bench   paper tables (bench/main.exe quick) + powderbench: every
#             workload correct, no failed operations
#     pareto  frontier sweep: jobs determinism, frontier invariants,
#             glitch cost model
#     scale   synth:4000 round: jobs determinism + top-heap gate +
#             --verify;
#             synth10k round: windowed and global checking agree on
#             the final power
#     all     every stage above, in that order (the default)
#
# Every leg runs under a hard wall-clock cap so a hang fails the build
# instead of wedging it.  Performance is compared by powderbench
# (BENCHMARK.json) against the parent commit, not here: ci.sh gates
# correctness only.  Each stage is timed; a summary table is
# printed at exit (with the failing stage named when one fails).
set -eu
cd "$(dirname "$0")"

# timeout(1) wrapper; degrade to bare execution where coreutils is absent
if command -v timeout >/dev/null 2>&1; then
  hard_timeout() { t="$1"; shift; timeout "$t" "$@"; }
else
  hard_timeout() { shift; "$@"; }
fi

summary_file=$(mktemp /tmp/powder_ci_summary_XXXXXX)
current_stage=""
finish() {
  status=$?
  echo
  echo "== ci summary =="
  cat "$summary_file"
  if [ "$status" -ne 0 ] && [ -n "$current_stage" ]; then
    printf '%-8s %6s  FAILED\n' "$current_stage" "-"
    echo "CI FAILED (stage: $current_stage)"
  fi
  rm -f "$summary_file"
  exit "$status"
}
trap finish EXIT

run_stage() {
  current_stage="$1"
  echo "==== stage: $1 ===="
  t0=$(date +%s)
  "stage_$1"
  t1=$(date +%s)
  printf '%-8s %5ss  ok\n' "$1" "$((t1 - t0))" >> "$summary_file"
  current_stage=""
}

# golden_md5 FILE.md5 BLIF: the netlist's md5 must be the recorded one
golden_md5() {
  got=$(md5sum < "$2" | cut -d' ' -f1)
  if [ "$got" != "$(cat "$1")" ]; then
    echo "$2: md5 $got differs from $1" >&2
    exit 1
  fi
}

# report_field KEY REPORT.json: the first scalar value under "KEY"
# (reports are one line; json_check has validated the file); fails when
# the key is missing, so an absent field cannot compare as equal
report_field() {
  v=$(grep -o "\"$1\":[^,}]*" "$2" | head -n 1 | cut -d: -f2)
  if [ -z "$v" ]; then
    echo "$2: no $1 field" >&2
    exit 1
  fi
  echo "$v"
}

# ------------------------------------------------------------------ #
# build                                                              #
# ------------------------------------------------------------------ #
stage_build() {
  hard_timeout 600 dune build
}

# ------------------------------------------------------------------ #
# test                                                               #
# ------------------------------------------------------------------ #
stage_test() {
  hard_timeout 900 dune runtest

  echo "== fault injection =="
  hard_timeout 300 dune exec test/main.exe -- test guard
}

# ------------------------------------------------------------------ #
# smoke                                                              #
# ------------------------------------------------------------------ #
stage_smoke() {
  echo "== smoke: optimize rd84 with full telemetry =="
  tmp_json=$(mktemp /tmp/powder_ci_XXXXXX.json)
  tmp_trace=$(mktemp /tmp/powder_ci_XXXXXX.jsonl)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit rd84 \
    --json "$tmp_json" --trace "$tmp_trace" --metrics
  dune exec bin/json_check.exe -- "$tmp_json"
  # funnel identities must hold in the degenerate (windowing off) case too
  dune exec bin/json_check.exe -- --check-report "$tmp_json"
  dune exec bin/json_check.exe -- --jsonl "$tmp_trace"
  rm -f "$tmp_json" "$tmp_trace"

  echo "== smoke: windowed check funnel is coherent =="
  # window_checks = proved + escalated, every escalation classified
  # under a window/* give-up key, and none of them counted as a
  # rejection — validated structurally from the emitted report
  win_json=$(mktemp /tmp/powder_ci_win_XXXXXX.json)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit rd84 \
    --window 16 --json "$win_json" >/dev/null
  dune exec bin/json_check.exe -- --check-report "$win_json"
  rm -f "$win_json"

  echo "== smoke: deep profile (call tree, flamegraph, Chrome trace) =="
  prof_dir=$(mktemp -d /tmp/powder_ci_prof_XXXXXX)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit rd84 \
    --profile "$prof_dir" --json "$prof_dir/report.json" >/dev/null
  dune exec bin/json_check.exe -- "$prof_dir/profile.json"
  dune exec bin/json_check.exe -- "$prof_dir/trace.chrome.json"
  dune exec bin/json_check.exe -- "$prof_dir/report.json"
  test -s "$prof_dir/profile.folded"
  dune exec bin/powder_cli.exe -- report "$prof_dir" --top 10
  rm -rf "$prof_dir"

  echo "== smoke: checkpoint round-trip (kill after 3 rounds, resume) =="
  ck=$(mktemp /tmp/powder_ci_ck_XXXXXX.json)
  ref_ck=$(mktemp /tmp/powder_ci_refck_XXXXXX.json)
  full_json=$(mktemp /tmp/powder_ci_full_XXXXXX.json)
  resumed_json=$(mktemp /tmp/powder_ci_res_XXXXXX.json)
  # reference: uninterrupted 6-round checkpointing run (a checkpoint
  # sink puts a barrier in every round, which a plain run does not have)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit alu2 \
    --max-rounds 6 --checkpoint "$ref_ck" --json "$full_json" >/dev/null
  # interrupted: stop after 3 rounds (the checkpoint survives), resume to 6
  rm -f "$ck"
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit alu2 \
    --max-rounds 3 --checkpoint "$ck" >/dev/null
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit alu2 \
    --max-rounds 6 --checkpoint "$ck" --resume \
    --json "$resumed_json" >/dev/null
  dune exec bin/json_check.exe -- --compare-reports "$full_json" "$resumed_json"
  rm -f "$ck" "$ref_ck" "$full_json" "$resumed_json"

  echo "== smoke: pareto checkpoint round-trip (stop after 1 round, re-run) =="
  # Each sweep point checkpoints every round; a re-run over the same
  # directory resumes the unfinished points mid-run and must land on
  # the uninterrupted sweep's report.
  ck_dir=$(mktemp -d /tmp/powder_ci_pck_XXXXXX)
  ref_dir=$(mktemp -d /tmp/powder_ci_pref_XXXXXX)
  full_json=$(mktemp /tmp/powder_ci_pfull_XXXXXX.json)
  resumed_json=$(mktemp /tmp/powder_ci_pres_XXXXXX.json)
  hard_timeout 300 dune exec bin/powder_cli.exe -- pareto -c rd84 \
    --checkpoint-dir "$ref_dir" --json "$full_json" >/dev/null
  hard_timeout 300 dune exec bin/powder_cli.exe -- pareto -c rd84 \
    --checkpoint-dir "$ck_dir" --max-rounds 1 >/dev/null
  hard_timeout 300 dune exec bin/powder_cli.exe -- pareto -c rd84 \
    --checkpoint-dir "$ck_dir" --json "$resumed_json" >/dev/null
  dune exec bin/json_check.exe -- --compare-reports "$full_json" "$resumed_json"
  rm -rf "$ck_dir" "$ref_dir" "$full_json" "$resumed_json"

  echo "== smoke: parallel determinism (--jobs 4 == --jobs 1) =="
  # The hard invariant of the domain pool: report JSON (modulo timing
  # and the jobs field) and the emitted netlist are byte-identical at
  # any job count.
  seq_json=$(mktemp /tmp/powder_ci_j1_XXXXXX.json)
  par_json=$(mktemp /tmp/powder_ci_j4_XXXXXX.json)
  seq_blif=$(mktemp /tmp/powder_ci_j1_XXXXXX.blif)
  par_blif=$(mktemp /tmp/powder_ci_j4_XXXXXX.blif)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit rd84 \
    --jobs 1 --json "$seq_json" -o "$seq_blif" >/dev/null
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit rd84 \
    --jobs 4 --json "$par_json" -o "$par_blif" >/dev/null
  dune exec bin/json_check.exe -- --compare-reports "$seq_json" "$par_json"
  cmp "$seq_blif" "$par_blif"
  rm -f "$seq_json" "$par_json" "$seq_blif" "$par_blif"

  echo "== smoke: signature determinism on cps (jobs) =="
  # The signature store's own invariant, on the circuit whose generate
  # phase motivated it: any pool width must emit byte-identical
  # netlists and matching reports.  cps is the largest suite circuit,
  # so this is also the leg that would catch a store-maintenance bug
  # only visible at scale.  (The hash index is checked against the
  # linear reference scan by the sigstore unit tests and the fuzzer.)
  ref_json=$(mktemp /tmp/powder_ci_sig_ref_XXXXXX.json)
  ref_blif=$(mktemp /tmp/powder_ci_sig_ref_XXXXXX.blif)
  ref_txt=$(mktemp /tmp/powder_ci_sig_ref_XXXXXX.txt)
  alt_json=$(mktemp /tmp/powder_ci_sig_alt_XXXXXX.json)
  alt_blif=$(mktemp /tmp/powder_ci_sig_alt_XXXXXX.blif)
  alt_txt=$(mktemp /tmp/powder_ci_sig_alt_XXXXXX.txt)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit cps \
    --jobs 1 --metrics --json "$ref_json" -o "$ref_blif" > "$ref_txt"
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit cps \
    --jobs 4 --metrics --verify --json "$alt_json" -o "$alt_blif" > "$alt_txt"
  cmp "$ref_blif" "$alt_blif"
  dune exec bin/json_check.exe -- --compare-reports "$ref_json" "$alt_json"

  echo "== smoke: --verify proves the cps result equivalent =="
  # cps is too wide for exhaustive simulation: the swept miter proves it
  grep -qx 'verification: equivalent' "$alt_txt"

  echo "== smoke: planted one-gate mutants of the cps result are refuted =="
  # every mutant that simulation shows to differ must come back
  # Different, with a counterexample single-pattern evaluation confirms
  hard_timeout 300 dune exec test/mutants.exe -- cps "$ref_blif" 60

  echo "== smoke: the parallel run throws no work away =="
  # Exact checks run in rank order at every job count, and the pool
  # only fans out work whose every result is used, so no finished task
  # may be discarded.
  awk '
    $1 == "par.speculations.discarded" { d = $2 }
    END {
      if (d != "0") { print "par.speculations.discarded " d ", want 0"; exit 1 }
    }' "$alt_txt"

  echo "== smoke: cps matches the golden report and netlist =="
  # A deliberate output change updates test/golden/ in the same commit.
  dune exec bin/json_check.exe -- --compare-reports test/golden/cps.report.json "$ref_json"
  golden_md5 test/golden/cps.blif.md5 "$ref_blif"

  echo "== smoke: keep-initial cps matches the golden report and netlist =="
  # The delay-constrained flow (the benchmark's second cps run) takes
  # other accepts and exercises timing; it is pinned the same way.
  keep_json=$(mktemp /tmp/powder_ci_keep_XXXXXX.json)
  keep_blif=$(mktemp /tmp/powder_ci_keep_XXXXXX.blif)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit cps \
    --delay keep --jobs 1 --json "$keep_json" -o "$keep_blif" > /dev/null
  dune exec bin/json_check.exe -- --compare-reports test/golden/cps-keep.report.json "$keep_json"
  golden_md5 test/golden/cps-keep.blif.md5 "$keep_blif"
  rm -f "$keep_json" "$keep_blif"

  echo "== smoke: windowed cps matches the golden report and netlist =="
  # Three rounds at --window 16 (137 window checks, 11 proved, 126
  # escalated on a window counterexample) pin the window miter and its
  # search the way the runs above pin the global check.
  w16_json=$(mktemp /tmp/powder_ci_w16_XXXXXX.json)
  w16_blif=$(mktemp /tmp/powder_ci_w16_XXXXXX.blif)
  hard_timeout 300 dune exec bin/powder_cli.exe -- optimize --circuit cps \
    --window 16 --max-rounds 3 --jobs 1 --json "$w16_json" -o "$w16_blif" > /dev/null
  dune exec bin/json_check.exe -- --compare-reports test/golden/cps-w16.report.json "$w16_json"
  golden_md5 test/golden/cps-w16.blif.md5 "$w16_blif"
  rm -f "$w16_json" "$w16_blif"

  echo "== smoke: cps search and store maintenance are pinned =="
  # The SAT search is pinned by its conflict total over the run (the
  # sweeps' pair proofs included) and by the sweeps a search runs at
  # its first conflict, and the signature store resyncs once per round
  # (accepts only mark rows stale), so its full rebuilds are at most
  # the rounds.  A deliberate search change updates these values
  # together with test/golden/.  The simulation work is pinned too: the
  # nodes the engine re-evaluates (full and incremental), the
  # incremental updates, and the stems flipped for the observability
  # table (the same at every job count).  A deliberate change to the
  # simulation or to what it is asked updates them together with
  # test/golden/.
  rounds=$(report_field rounds "$ref_json")
  awk -v rounds="$rounds" '
    $1 == "atpg.sat.conflicts" { c = $2 }
    $1 == "check.sweep.escalations" { e = $2 }
    $1 == "check.sweep.proved" { p = $2 }
    $1 == "check.sweep.pair_proofs" { q = $2 }
    $1 == "sig/store.rebuilds" { r = $2 }
    $1 == "sim.resim.nodes" { n = $2 }
    $1 == "sim.resim_edit.calls" { u = $2 }
    $1 == "sim.observability.stem.calls" { s = $2 }
    END {
      if (c != 73150) { print "atpg.sat.conflicts " c ", want 73150"; bad = 1 }
      if (e != 628) { print "check.sweep.escalations " e ", want 628"; bad = 1 }
      if (p != 287) { print "check.sweep.proved " p ", want 287"; bad = 1 }
      if (q != 609) { print "check.sweep.pair_proofs " q ", want 609"; bad = 1 }
      if (n != 397006) { print "sim.resim.nodes " n ", want 397006"; bad = 1 }
      if (u != 574) { print "sim.resim_edit.calls " u ", want 574"; bad = 1 }
      if (s != 14474) { print "sim.observability.stem.calls " s ", want 14474"; bad = 1 }
      if (r == "" || r > rounds) {
        print "sig/store.rebuilds " r " exceeds the " rounds " rounds"; bad = 1
      }
      exit bad
    }' "$ref_txt"

  echo "== smoke: cps generate pays for few gain estimates =="
  # Generate skips every source whose gain bound cannot be kept, so its
  # sig/gain_ab count (the Subst.gain_ab estimates candidate selection
  # makes) is pinned from above, and equal at every job count.  A
  # deliberate generate change updates the bound.
  awk '
    FNR == 1 { f++ }
    $1 == "sig/gain_ab" { g[f] = $2 }
    END {
      if (g[1] == "" || g[1] != g[2]) {
        print "sig/gain_ab " g[1] " at --jobs 1, " g[2] " at --jobs 4"; exit 1
      }
      if (g[1] > 85004) { print "sig/gain_ab " g[1] ", want at most 85004"; exit 1 }
    }' "$ref_txt" "$alt_txt"
  rm -f "$ref_json" "$ref_blif" "$ref_txt" "$alt_json" "$alt_blif" "$alt_txt"

  echo "== smoke: allocation is pinned =="
  # The simulation kernel writes unboxed words into Sim.Engine's flat
  # store, and a stem's dominated region costs O(|Dom|) through the
  # shared region mask, so allocation is pinned from above (the
  # runtime's exit statistics at --jobs 1): the total minor words of a
  # cps run (125,965,935 when pinned, 162.85e6 with a boxed Int64 per
  # word; the count moves by a few words with the length of the
  # command line), and the words a synth:4000 round allocates in the
  # major heap (about 4.0e6; 60.3e6 with an O(circuit) mask per stem).
  # A deliberate change that allocates more updates the bound.
  dune build bin/powder_cli.exe
  cli=_build/default/bin/powder_cli.exe
  gc_txt=$(mktemp /tmp/powder_ci_gc_XXXXXX.txt)
  hard_timeout 300 env OCAMLRUNPARAM=v=0x400 "$cli" optimize --circuit cps \
    --jobs 1 >/dev/null 2>"$gc_txt"
  awk '$1 == "minor_words:" { m = $2 }
    END {
      if (m == "" || m > 126.0e6) {
        print "cps minor_words " m ", want at most 126.0e6"; exit 1
      }
    }' "$gc_txt"
  hard_timeout 300 env OCAMLRUNPARAM=v=0x400 "$cli" optimize --circuit synth:4000 \
    --window 16 --max-rounds 1 --jobs 1 >/dev/null 2>"$gc_txt"
  awk '$1 == "major_words:" { m = $2 }
    END {
      if (m == "" || m > 1e7) {
        print "synth:4000 round major_words " m ", want at most 1e7"; exit 1
      }
    }' "$gc_txt"
  rm -f "$gc_txt"

  echo "== smoke: hostile inputs fail with one line and exit 123 =="
  # Every file of the test/hostile/ corpus (and a path that does not
  # exist) is a user error: exactly one "powder_cli: ..." line on
  # stderr and exit 123, never the 125 of an escaping exception.  So
  # are --resume without --checkpoint, a --checkpoint file that is not
  # a checkpoint, a checkpoint of another circuit, and a report on a
  # missing or unparsable profile.
  err_txt=$(mktemp /tmp/powder_ci_err_XXXXXX.txt)
  other_ck=$(mktemp /tmp/powder_ci_other_XXXXXX.json)
  user_error() {
    set +e
    hard_timeout 60 "$cli" "$@" >/dev/null 2>"$err_txt"
    code=$?
    set -e
    lines=$(wc -l < "$err_txt")
    if [ "$code" -ne 123 ] || [ "$lines" -ne 1 ] \
      || ! grep -q '^powder_cli: ' "$err_txt"; then
      echo "$*: exit $code with $lines stderr lines, want 123 and 1:" >&2
      cat "$err_txt" >&2
      exit 1
    fi
    cat "$err_txt"
  }
  for f in test/hostile/*.blif test/hostile/missing.blif; do
    user_error optimize -i "$f"
  done
  user_error optimize -c rd84 --resume
  user_error optimize -c rd84 --resume --checkpoint test/hostile/garbage_line.blif
  hard_timeout 60 "$cli" optimize -c rd84 --max-rounds 1 \
    --checkpoint "$other_ck" >/dev/null
  user_error optimize -c C880 --resume --checkpoint "$other_ck"
  user_error report test/hostile/missing.blif
  user_error report test/hostile/garbage_line.blif
  rm -f "$err_txt" "$other_ck"
}

# ------------------------------------------------------------------ #
# fuzz                                                               #
# ------------------------------------------------------------------ #
stage_fuzz() {
  echo "== fuzz: differential campaign (fixed seed) =="
  # Clean campaign: any oracle split or unshrunk crash exits non-zero.
  fuzz_dir=$(mktemp -d /tmp/powder_ci_fuzz_XXXXXX)
  if ! hard_timeout 120 dune exec bin/powder_cli.exe -- fuzz --seed 1 \
    --budget 20 --out "$fuzz_dir"; then
    echo "fuzz smoke failed; shrunk repro bundles (replay with" \
      "powder_cli fuzz --replay <bundle>):" >&2
    ls -l "$fuzz_dir" >&2 || true
    exit 1
  fi

  echo "== fuzz: injected guard fault is caught, shrunk, replayable =="
  # The harness must catch a forged permissibility verdict, shrink the
  # witness, and the dumped bundle must reproduce the failure.
  if ! hard_timeout 120 dune exec bin/powder_cli.exe -- fuzz --seed 1 \
    --budget 20 --inject forge_verdict --out "$fuzz_dir"; then
    echo "injected-fault fuzz leg failed; bundles:" >&2
    ls -l "$fuzz_dir" >&2 || true
    exit 1
  fi
  bundle=$(ls "$fuzz_dir"/fuzz-*-injected_corruption.json | head -n 1)
  hard_timeout 120 dune exec bin/powder_cli.exe -- fuzz --replay "$bundle"
  rm -rf "$fuzz_dir"
}

# ------------------------------------------------------------------ #
# serve                                                              #
# ------------------------------------------------------------------ #
stage_serve() {
  echo "== serve: batch service drains a 3-job queue =="
  serve_dir=$(mktemp -d /tmp/powder_ci_serve_XXXXXX)
  cat > "$serve_dir/jobs.jsonl" <<'EOF'
{"op":"submit","id":"s1","circuit":"rd84","priority":1,"options":{"words":4,"max_rounds":2}}
{"op":"submit","id":"s2","circuit":"alu2","options":{"words":4,"max_rounds":2}}
{"op":"submit","id":"s3","circuit":"f51m","priority":-1,"options":{"words":4,"max_rounds":2}}
EOF
  hard_timeout 300 dune exec bin/powder_cli.exe -- serve \
    --input "$serve_dir/jobs.jsonl" --state "$serve_dir/state" \
    | grep -q 'drained  completed=3 failed=0 rejected=0'
  for id in s1 s2 s3; do
    dune exec bin/json_check.exe -- "$serve_dir/state/results/$id.json"
    test -s "$serve_dir/state/results/$id.blif"
  done
  dune exec bin/json_check.exe -- --jsonl "$serve_dir/state/results.jsonl"

  echo "== chaos: worker crashes leave results byte-identical =="
  # Same 3 jobs under worker-crash injection: the supervisor retries the
  # crashed slices from their checkpoints and must land on exactly the
  # outputs of the undisturbed run above.
  hard_timeout 300 dune exec bin/powder_cli.exe -- serve \
    --input "$serve_dir/jobs.jsonl" --state "$serve_dir/chaos" \
    --inject worker-crash --retry-base 0.01 --retry-cap 0.05 >/dev/null
  for id in s1 s2 s3; do
    cmp "$serve_dir/state/results/$id.blif" "$serve_dir/chaos/results/$id.blif"
    dune exec bin/json_check.exe -- --compare-reports \
      "$serve_dir/state/results/$id.json" "$serve_dir/chaos/results/$id.json"
  done
  grep -q '"ev":"retry"' "$serve_dir/chaos/results.jsonl"

  echo "== chaos: kill -TERM mid-run, restart recovers bit-identically =="
  cli=_build/default/bin/powder_cli.exe
  dune build bin/powder_cli.exe
  cat > "$serve_dir/big.jsonl" <<'EOF'
{"op":"submit","id":"k1","circuit":"rd84","options":{"words":4,"max_rounds":6}}
{"op":"submit","id":"k2","circuit":"alu2","options":{"words":4,"max_rounds":6}}
{"op":"submit","id":"k3","circuit":"f51m","options":{"words":4,"max_rounds":6}}
EOF
  # reference: the same queue run to completion undisturbed
  hard_timeout 300 "$cli" serve --input "$serve_dir/big.jsonl" \
    --state "$serve_dir/ref" >/dev/null
  # interrupted run: SIGTERM lands between slices, the queue is persisted
  "$cli" serve --input "$serve_dir/big.jsonl" --state "$serve_dir/kill" \
    >/dev/null &
  serve_pid=$!
  sleep 0.4
  kill -TERM "$serve_pid" 2>/dev/null || true
  wait "$serve_pid"
  # restart on the same state directory with no new input: pending jobs
  # recover (resuming mid-job from their checkpoints) and finish
  hard_timeout 300 "$cli" serve --input /dev/null --state "$serve_dir/kill" \
    >/dev/null
  for id in k1 k2 k3; do
    cmp "$serve_dir/ref/results/$id.blif" "$serve_dir/kill/results/$id.blif"
    dune exec bin/json_check.exe -- --compare-reports \
      "$serve_dir/ref/results/$id.json" "$serve_dir/kill/results/$id.json"
  done

  echo "== chaos: kill -KILL mid-drain, restart recovers bit-identically =="
  # The input is a FIFO held open, so the server cannot finish its drain
  # on its own; the hard kill lands as soon as the first job's result is
  # on disk, with the other two queued or mid-slice.  Nothing runs at
  # exit: the restart sees only what the journal made durable.
  mkfifo "$serve_dir/feed"
  "$cli" serve --input "$serve_dir/feed" --state "$serve_dir/hard" \
    >/dev/null &
  serve_pid=$!
  exec 3>"$serve_dir/feed"
  cat "$serve_dir/big.jsonl" >&3
  polls=0
  until [ -e "$serve_dir/hard/results/k1.json" ] || [ "$polls" -ge 1200 ]; do
    sleep 0.05
    polls=$((polls + 1))
  done
  kill -KILL "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  exec 3>&-
  test -e "$serve_dir/hard/results/k1.json"
  hard_timeout 300 "$cli" serve --input /dev/null --state "$serve_dir/hard" \
    | grep -q 'recovered=[1-9]'
  for id in k1 k2 k3; do
    cmp "$serve_dir/ref/results/$id.blif" "$serve_dir/hard/results/$id.blif"
    dune exec bin/json_check.exe -- --compare-reports \
      "$serve_dir/ref/results/$id.json" "$serve_dir/hard/results/$id.json"
  done
  rm -rf "$serve_dir"
}

# ------------------------------------------------------------------ #
# bench                                                              #
# ------------------------------------------------------------------ #
stage_bench() {
  echo "== bench: paper tables (quick) =="
  hard_timeout 600 dune exec bench/main.exe -- quick >/dev/null

  echo "== bench: an unknown section is a usage error (exit 2) =="
  status=0
  dune exec bench/main.exe -- scale >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "bench/main.exe -- scale exited $status, not 2" >&2
    exit 1
  fi

  echo "== bench: powderbench, every workload correct =="
  # One short repeat per workload (cps-converge, synth-round,
  # serve-drain): every output validated, simulated and (where
  # feasible) proved equivalent, and no operation failed.
  # Timings are not gated here: a change is compared with its parent
  # by running powderbench on both checkouts (BENCHMARK.json bounds).
  pb=$(mktemp /tmp/powder_ci_pb_XXXXXX.json)
  hard_timeout 900 python3 powderbench/run.py --seconds 1 > "$pb"
  ok=$(grep -o '"correct": *true' "$pb" | wc -l)
  clean=$(grep -o '"failed": *0[,}]' "$pb" | wc -l)
  if [ "$ok" -ne 3 ] || [ "$clean" -ne 3 ]; then
    echo "powderbench: $ok/3 workloads correct, $clean/3 without failures" >&2
    cat "$pb" >&2
    exit 1
  fi
  rm -f "$pb"
}

# ------------------------------------------------------------------ #
# pareto                                                             #
# ------------------------------------------------------------------ #
stage_pareto() {
  echo "== pareto: cps sweep — determinism across --jobs, frontier invariants =="
  # The sweep's contract in one leg: the default 4-constraint sweep on
  # the largest suite circuit produces a dominance-pruned frontier
  # (validated structurally by json_check), rejects candidates on the
  # delay screen at the tightest constraint, and emits byte-identical
  # JSON at any job count.
  p1=$(mktemp /tmp/powder_ci_pareto_j1_XXXXXX.json)
  p4=$(mktemp /tmp/powder_ci_pareto_j4_XXXXXX.json)
  hard_timeout 600 dune exec bin/powder_cli.exe -- pareto --circuit cps \
    --words 4 --max-rounds 4 --jobs 1 --json "$p1" >/dev/null
  hard_timeout 600 dune exec bin/powder_cli.exe -- pareto --circuit cps \
    --words 4 --max-rounds 4 --jobs 4 --json "$p4" >/dev/null
  dune exec bin/json_check.exe -- --check-report "$p1"
  dune exec bin/json_check.exe -- --compare-reports "$p1" "$p4"
  # the tightest constraint must actually bite
  if ! grep -q '"rejected_by_delay":[1-9]' "$p1"; then
    echo "pareto: no point rejected anything on delay" >&2
    exit 1
  fi
  rm -f "$p1" "$p4"

  echo "== pareto: glitch cost model report validates =="
  pg=$(mktemp /tmp/powder_ci_pareto_gl_XXXXXX.json)
  hard_timeout 600 dune exec bin/powder_cli.exe -- pareto --circuit rd84 \
    --cost glitch --words 4 --max-rounds 4 --json "$pg" >/dev/null
  dune exec bin/json_check.exe -- --check-report "$pg"
  rm -f "$pg"
}

# ------------------------------------------------------------------ #
# scale                                                              #
# ------------------------------------------------------------------ #
stage_scale() {
  echo "== scale: synth:4000 round, determinism and memory (--jobs 2 == --jobs 1) =="
  # One windowed round on a 4000-gate netlist, where candidate
  # generation and ranking dominate.  Both job counts must emit
  # matching reports and byte-identical netlists, and the top heap must
  # stay under 7.5e6 words (60 MB): per-target work and memory are
  # proportional to the target's cone, and a stem's dominated region
  # is a shared mask set and cleared over its members (3.4e6 words at
  # --jobs 1, 4.0e6 at --jobs 2); a fresh O(circuit) mask per stem took
  # it to ~2.5e7, one per target to ~1.8e8.
  scale_dir=$(mktemp -d /tmp/powder_ci_synth_XXXXXX)
  for j in 1 2; do
    hard_timeout 600 dune exec bin/powder_cli.exe -- optimize \
      --circuit synth:4000 --window 16 --max-rounds 1 --metrics --jobs "$j" \
      --verify --json "$scale_dir/j$j.json" -o "$scale_dir/j$j.blif" > "$scale_dir/j$j.txt"
    # the swept miter proves a 4000-gate result, far beyond exhaustive
    # simulation's reach
    grep -qx 'verification: equivalent' "$scale_dir/j$j.txt"
    awk -v j="$j" '$1 == "gc.top_heap_words" {
        seen = 1
        if ($2 > 7.5e6) { print "top heap " $2 " words > 7.5e6 at --jobs " j; bad = 1 }
      }
      END {
        if (!seen) print "no gc.top_heap_words gauge at --jobs " j
        exit (bad || !seen)
      }' "$scale_dir/j$j.txt"
    # Branch observability rows come from the local rule over the stem
    # table, so no branch may be flipped and re-simulated (a missing
    # counter counts as zero).
    awk -v j="$j" '$1 == "sim.observability.branch.calls" && $2 != 0 {
        print "branch observability perturbed " $2 " times at --jobs " j
        bad = 1
      }
      END { exit bad }' "$scale_dir/j$j.txt"
  done
  dune exec bin/json_check.exe -- --compare-reports "$scale_dir/j1.json" "$scale_dir/j2.json"
  cmp "$scale_dir/j1.blif" "$scale_dir/j2.blif"
  # the 3-signal pool kernel's counters are deterministic too
  grep '^sig/pool\.' "$scale_dir/j1.txt" > "$scale_dir/pool1.txt"
  grep '^sig/pool\.' "$scale_dir/j2.txt" > "$scale_dir/pool2.txt"
  test -s "$scale_dir/pool1.txt"
  cmp "$scale_dir/pool1.txt" "$scale_dir/pool2.txt"
  echo "== scale: synth:4000 round matches the golden report and netlist =="
  dune exec bin/json_check.exe -- --compare-reports \
    test/golden/synth4000-w16-r1.report.json "$scale_dir/j1.json"
  golden_md5 test/golden/synth4000-w16-r1.blif.md5 "$scale_dir/j1.blif"
  rm -rf "$scale_dir"

  echo "== scale: synth10k round, windowed and global checking agree =="
  # A window counterexample escalates to the global miter instead of
  # rejecting, so the two runs can only diverge where the global engine
  # gave up or timed out on a candidate the window proves.  When the
  # global run decided every check, the final powers must be identical:
  # a difference means the windowed path accepted something the global
  # oracle refutes.
  win_dir=$(mktemp -d /tmp/powder_ci_window_XXXXXX)
  for w in 16 off; do
    hard_timeout 900 dune exec bin/powder_cli.exe -- optimize \
      --circuit synth10k --max-rounds 1 --window "$w" --jobs 1 \
      --json "$win_dir/$w.json" >/dev/null
    dune exec bin/json_check.exe -- --check-report "$win_dir/$w.json"
  done
  p16=$(report_field final_power "$win_dir/16.json")
  poff=$(report_field final_power "$win_dir/off.json")
  giveups=$(report_field rejected_by_giveup "$win_dir/off.json")
  timeouts=$(report_field rejected_by_timeout "$win_dir/off.json")
  undecided=$((giveups + timeouts))
  echo "final power: window 16 $p16, off $poff ($undecided undecided)"
  if [ "$undecided" -eq 0 ] && [ "$p16" != "$poff" ]; then
    echo "scale: windowed final power $p16 <> global $poff" \
      "— windowed checking diverged from the global oracle" >&2
    exit 1
  fi
  rm -rf "$win_dir"
}

# ------------------------------------------------------------------ #
# driver                                                             #
# ------------------------------------------------------------------ #
if [ "$#" -eq 0 ]; then
  set -- all
fi
for s in "$@"; do
  case "$s" in
    all)
      for t in build test smoke fuzz serve bench pareto scale; do run_stage "$t"; done ;;
    build|test|smoke|fuzz|serve|bench|pareto|scale)
      run_stage "$s" ;;
    *)
      echo "ci.sh: unknown stage '$s'" >&2
      echo "usage: ./ci.sh [build|test|smoke|fuzz|serve|bench|pareto|scale|all]..." >&2
      exit 2 ;;
  esac
done

echo "CI OK"
