#!/bin/bash
# Regenerates every table and figure of the paper. Default scale (cap 800)
# keeps the full suite under ~1.5 h on a laptop; pass --full for paper scale.
#
# --smoke: instead of the full suite, run one tiny traced dataset through
# the timing binary twice — once with the dispatched kernels (WYM_KERNEL=auto)
# and once pinned to the scalar reference (WYM_KERNEL=scalar) — and fail if
# (a) any registered pipeline stage recorded zero spans, (b) either run did
# not record a kernel.dispatch.* counter, (c) the two runs' deterministic
# relevance-score checksums differ, which would break the kernel layer's
# bit-identity guarantee (see DESIGN.md §8–9), (d) `cargo clippy --workspace
# -- -D warnings` reports anything, or (e) the obs_diff regression sentinel
# finds either kernel variant's snapshot drifting from its committed
# baseline (results/OBS_baseline_smoke*.json; wall times ignored — only the
# deterministic structure, counters, gauges, and histograms gate; see
# DESIGN.md §10), or (f) the blocking pipeline's candidate-set checksum
# differs between kernel variants or its scalar snapshot drifts from
# results/OBS_baseline_blocking.json (DESIGN.md §11), or (g)
# `RUSTDOCFLAGS="-D warnings" cargo doc --no-deps` reports anything, or
# (h) the model-artifact round trip (train→save→load→classify, DESIGN.md
# §12) is not bit-identical to the in-memory model under either kernel
# variant, or the two kernels serialize different model bytes, or (i) the
# telemetry gate (DESIGN.md §13) fails: `wym classify --audit-log` must
# write byte-identical decision JSONL across WYM_KERNEL=scalar|auto and
# thread counts 1 and 4, the artifact's frozen drift baseline must stay
# quiet ("drift: OK") on in-distribution data and trip ("drift: ALERT")
# on a synthetically shifted stream, `wym obs report` must summarize the
# log, and the traced classify snapshot (windowed metrics + drift gauges)
# must match results/OBS_baseline_decisions.json, or (j) any explicitly
# requestable kernel backend this host supports (per `wym kernels`:
# avx2, avx512) produces a different score checksum than the scalar
# reference — unsupported backends are reported as "SKIP (unsupported)",
# never failed — or (k) the criterion benches no longer compile
# (`cargo bench --no-run`), or (l) the flight recorder (DESIGN.md §15)
# fails its post-mortem drill: a run with an injected panic must leave a
# parseable Chrome-trace dump naming the panicking span, a run with an
# injected stall must trip the watchdog's stall warning and dump, and
# `--chrome-trace` plus `wym obs flight` must round-trip a healthy run's
# event tail, or (m) the hostile-bytes drill fails: crafted files under
# results/smoke_hostile_* (a snapshot whose windows section declares a
# 10^12-frame ring, one whose histogram bounds decrease, and 100,000
# nested '[') must make `obs_diff` exit 2 (a file error) and `wym obs
# flight` exit 1, and `wym classify` of a T-AB CSV with the S-FZ smoke
# model must exit 1 with an error naming both attribute lists — never
# abort or panic, or (n) the smoke run changed a tracked file: it
# fingerprints `git diff HEAD --binary` at its start and at its end and
# fails if the two differ (SKIP outside a git checkout). Every output it
# writes is gitignored (results/smoke*, OBS_smoke*, OBS_blocking_smoke*,
# model_*.wyma, ann_tables*.wyma, FLIGHT_*).
#
# --quick: the full suite at smoke scale. Each binary writes its results to
# results/smoke_<exp>.json and its log to results/smoke_<exp>.log, so the
# committed paper results stay untouched.
#
# Speed is measured by the benchmark, not here: `bash wymbench/run.sh
# --workload all --seed N` (see BENCHMARK.json and README "Performance").
set -u
cd "$(dirname "$0")"
mkdir -p results

# Fingerprint of every tracked change in the checkout.
tree_fingerprint() {
  git diff HEAD --binary | cksum
}

if [ "${1:-}" = "--smoke" ]; then
  shift
  TREE_START=""
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    TREE_START=$(tree_fingerprint)
  fi
  OBS_AUTO=results/OBS_smoke.json
  OBS_SCALAR=results/OBS_smoke_scalar.json
  rm -f "$OBS_AUTO" "$OBS_SCALAR"
  echo "=== smoke: clippy (workspace, -D warnings) ==="
  if ! cargo clippy --workspace -- -D warnings; then
    echo "SMOKE FAILED: clippy warnings" >&2
    exit 1
  fi
  echo "=== smoke: rustdoc (workspace, -D warnings) ==="
  if ! RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q; then
    echo "SMOKE FAILED: rustdoc warnings (RUSTDOCFLAGS=-D warnings cargo doc --no-deps)" >&2
    exit 1
  fi
  echo "=== smoke: benches compile (cargo bench --no-run) ==="
  if ! cargo bench --no-run -q; then
    echo "SMOKE FAILED: criterion benches do not compile (cargo bench --no-run)" >&2
    exit 1
  fi
  # --threads 1 pins the worker count so the exported snapshots (and the
  # committed baselines they diff against) are machine-independent.
  echo "=== smoke: traced tiny run (WYM_KERNEL=auto) ==="
  WYM_KERNEL=auto ./target/release/timing --quick --cap 40 --datasets S-FZ \
    --threads 1 --trace --metrics-out "$OBS_AUTO" "$@" 2>&1 | tee results/smoke.log
  echo "=== smoke: pinned scalar kernels (WYM_KERNEL=scalar) ==="
  WYM_KERNEL=scalar ./target/release/timing --quick --cap 40 --datasets S-FZ \
    --threads 1 --trace --metrics-out "$OBS_SCALAR" "$@" 2>&1 | tee results/smoke_scalar.log
  for f in "$OBS_AUTO" "$OBS_SCALAR"; do
    if [ ! -f "$f" ]; then
      echo "SMOKE FAILED: no metrics snapshot at $f" >&2
      exit 1
    fi
  done
  # The exported "stages" object maps each registered stage to its span
  # count; a `"stage": 0` entry means the stage never ran under tracing.
  DEAD=$(sed -n '/"stages"/,/}/p' "$OBS_AUTO" | grep -E '"[a-z_]+": 0(,|$)' || true)
  if [ -n "$DEAD" ]; then
    echo "SMOKE FAILED: stages with zero recorded spans:" >&2
    echo "$DEAD" >&2
    exit 1
  fi
  # Every run must record which kernel implementation it resolved to.
  for f in "$OBS_AUTO" "$OBS_SCALAR"; do
    HIT=$(grep -E '"kernel\.dispatch\.[a-z0-9_]+": *[1-9]' "$f" || true)
    if [ -z "$HIT" ]; then
      echo "SMOKE FAILED: no nonzero kernel.dispatch.* counter in $f" >&2
      exit 1
    fi
  done
  if ! grep -q '"kernel\.dispatch\.scalar"' "$OBS_SCALAR"; then
    echo "SMOKE FAILED: WYM_KERNEL=scalar run did not dispatch to scalar" >&2
    exit 1
  fi
  # Bit-identity gate: the dispatched and scalar runs must produce the
  # exact same relevance scores, down to the serialized f64 checksum.
  CK_AUTO=$(grep -o '"scorer\.score_checksum": *[-0-9.eE+]*' "$OBS_AUTO" | head -1 | sed 's/.*: *//')
  CK_SCALAR=$(grep -o '"scorer\.score_checksum": *[-0-9.eE+]*' "$OBS_SCALAR" | head -1 | sed 's/.*: *//')
  if [ -z "$CK_AUTO" ] || [ -z "$CK_SCALAR" ]; then
    echo "SMOKE FAILED: scorer.score_checksum gauge missing from a snapshot" >&2
    exit 1
  fi
  if [ "$CK_AUTO" != "$CK_SCALAR" ]; then
    echo "SMOKE FAILED: kernel dispatch changed scores: auto=$CK_AUTO scalar=$CK_SCALAR" >&2
    exit 1
  fi
  # Kernel matrix: every explicitly requestable ISA backend this host
  # supports (per `wym kernels`) must reproduce the scalar score checksum
  # bit-for-bit. Backends the host cannot run are skipped, not failed —
  # the dispatch layer's scalar fallback covers them.
  SUPPORTED_KERNELS=$(./target/release/wym kernels 2>/dev/null)
  for K in avx2 avx512; do
    # `wym kernels` and the dispatch counter use the implementation name,
    # which for WYM_KERNEL=avx2 is avx2_fma.
    KNAME=$K
    [ "$K" = avx2 ] && KNAME=avx2_fma
    if ! echo "$SUPPORTED_KERNELS" | grep -qx "$KNAME"; then
      echo "=== smoke: kernel matrix WYM_KERNEL=$K — SKIP (unsupported) ==="
      continue
    fi
    OBS_K="results/OBS_smoke_${K}.json"
    rm -f "$OBS_K"
    echo "=== smoke: kernel matrix (WYM_KERNEL=$K) ==="
    WYM_KERNEL=$K ./target/release/timing --quick --cap 40 --datasets S-FZ \
      --threads 1 --trace --metrics-out "$OBS_K" "$@" 2>&1 | tee "results/smoke_${K}.log"
    if [ ! -f "$OBS_K" ]; then
      echo "SMOKE FAILED: no metrics snapshot at $OBS_K" >&2
      exit 1
    fi
    if ! grep -q "\"kernel\.dispatch\.${KNAME}\"" "$OBS_K"; then
      echo "SMOKE FAILED: WYM_KERNEL=$K run did not dispatch to $KNAME" >&2
      exit 1
    fi
    CK_K=$(grep -o '"scorer\.score_checksum": *[-0-9.eE+]*' "$OBS_K" | head -1 | sed 's/.*: *//')
    if [ "$CK_K" != "$CK_SCALAR" ]; then
      echo "SMOKE FAILED: WYM_KERNEL=$K changed scores: $K=$CK_K scalar=$CK_SCALAR" >&2
      exit 1
    fi
  done
  # Regression sentinel. A snapshot diffed against itself must always pass
  # (sentinel sanity), then both kernel variants diff against their
  # committed baselines. Wall times are machine-dependent, so --ignore-wall;
  # everything else in these snapshots — span structure and counts,
  # counters, gauges (incl. the score checksum), histogram buckets — is
  # deterministic and gates exactly.
  echo "=== smoke: obs_diff regression sentinel ==="
  if ! ./target/release/obs_diff "$OBS_AUTO" "$OBS_AUTO"; then
    echo "SMOKE FAILED: obs_diff self-diff did not pass" >&2
    exit 1
  fi
  for pair in "results/OBS_baseline_smoke.json:$OBS_AUTO" \
              "results/OBS_baseline_smoke_scalar.json:$OBS_SCALAR"; do
    BASE="${pair%%:*}"
    CAND="${pair##*:}"
    if [ ! -f "$BASE" ]; then
      echo "SMOKE WARNING: no committed baseline $BASE; skipping diff" >&2
      continue
    fi
    if ! ./target/release/obs_diff --ignore-wall "$BASE" "$CAND"; then
      echo "SMOKE FAILED: $CAND regressed against $BASE" >&2
      exit 1
    fi
  done
  # Blocking gate: the candidate-generation pipeline (wym-block) runs its
  # own tiny table under both kernel variants. The `block.checksum` counter
  # is an FNV-1a over the final candidate pair set, so equal checksums mean
  # the candidate sets are bit-identical — the DESIGN.md §11 guarantee.
  # The scalar snapshot (kernel-independent by that same guarantee, and
  # with a machine-independent kernel.dispatch.scalar counter) then diffs
  # against its committed baseline.
  BLOCK_AUTO=results/OBS_blocking_smoke.json
  BLOCK_SCALAR=results/OBS_blocking_smoke_scalar.json
  rm -f "$BLOCK_AUTO" "$BLOCK_SCALAR"
  echo "=== smoke: blocking at scale (WYM_KERNEL=auto) ==="
  WYM_KERNEL=auto ./target/release/blocking_scale --smoke --threads 1 \
    --metrics-out "$BLOCK_AUTO" 2>&1 | tee results/smoke_blocking.log
  echo "=== smoke: blocking at scale (WYM_KERNEL=scalar) ==="
  WYM_KERNEL=scalar ./target/release/blocking_scale --smoke --threads 1 \
    --metrics-out "$BLOCK_SCALAR" 2>&1 | tee results/smoke_blocking_scalar.log
  for f in "$BLOCK_AUTO" "$BLOCK_SCALAR"; do
    if [ ! -f "$f" ]; then
      echo "SMOKE FAILED: no blocking metrics snapshot at $f" >&2
      exit 1
    fi
  done
  BCK_AUTO=$(grep -o '"block\.checksum": *[0-9]*' "$BLOCK_AUTO" | head -1 | sed 's/.*: *//')
  BCK_SCALAR=$(grep -o '"block\.checksum": *[0-9]*' "$BLOCK_SCALAR" | head -1 | sed 's/.*: *//')
  if [ -z "$BCK_AUTO" ] || [ -z "$BCK_SCALAR" ]; then
    echo "SMOKE FAILED: block.checksum counter missing from a blocking snapshot" >&2
    exit 1
  fi
  if [ "$BCK_AUTO" != "$BCK_SCALAR" ]; then
    echo "SMOKE FAILED: kernel dispatch changed the candidate set: auto=$BCK_AUTO scalar=$BCK_SCALAR" >&2
    exit 1
  fi
  if [ -f results/OBS_baseline_blocking.json ]; then
    if ! ./target/release/obs_diff --ignore-wall results/OBS_baseline_blocking.json "$BLOCK_SCALAR"; then
      echo "SMOKE FAILED: $BLOCK_SCALAR regressed against results/OBS_baseline_blocking.json" >&2
      exit 1
    fi
  else
    echo "SMOKE WARNING: no committed baseline results/OBS_baseline_blocking.json; skipping diff" >&2
  fi
  # Artifact gate (DESIGN.md §12): the round-trip binary trains a tiny
  # model, saves it, reloads it under both LoadMode::Read and ::Mmap, and
  # exits nonzero unless verdicts, impact scores, and score_checksum are
  # bit-identical to the in-memory model. Run once per kernel variant, then
  # compare the printed "artifact model fnv" — a fold of every section
  # checksum except the provenance manifest — so both kernels must also
  # have serialized the exact same model bytes. --threads is pinned because
  # the saved head embeds the config's n_threads knob (see the binary's
  # docs); thread-count invariance of the *outputs* is covered by the
  # round trip itself at whatever thread count the run uses.
  echo "=== smoke: artifact round trip (WYM_KERNEL=auto) ==="
  WYM_KERNEL=auto ./target/release/artifact_roundtrip --quick --cap 40 \
    --datasets S-FZ --threads 1 2>&1 | tee results/smoke_artifact.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: artifact round trip diverged under WYM_KERNEL=auto" >&2
    exit 1
  fi
  echo "=== smoke: artifact round trip (WYM_KERNEL=scalar) ==="
  WYM_KERNEL=scalar ./target/release/artifact_roundtrip --quick --cap 40 \
    --datasets S-FZ --threads 1 2>&1 | tee results/smoke_artifact_scalar.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: artifact round trip diverged under WYM_KERNEL=scalar" >&2
    exit 1
  fi
  AFNV_AUTO=$(grep -o 'artifact model fnv: [0-9a-f]*' results/smoke_artifact.log | head -1 | sed 's/.*: //')
  AFNV_SCALAR=$(grep -o 'artifact model fnv: [0-9a-f]*' results/smoke_artifact_scalar.log | head -1 | sed 's/.*: //')
  if [ -z "$AFNV_AUTO" ] || [ -z "$AFNV_SCALAR" ]; then
    echo "SMOKE FAILED: artifact model fnv missing from a round-trip log" >&2
    exit 1
  fi
  if [ "$AFNV_AUTO" != "$AFNV_SCALAR" ]; then
    echo "SMOKE FAILED: kernel dispatch changed the saved model: auto=$AFNV_AUTO scalar=$AFNV_SCALAR" >&2
    exit 1
  fi
  # Telemetry gate (DESIGN.md §13). Train a tiny model through the CLI —
  # which freezes a drift-baseline sketch of the training stream into the
  # artifact — then serve the same stream back through `classify` under
  # three (kernel, threads) variants. The decision audit log is the gate:
  # its JSONL must be byte-identical across all three (sequence numbers are
  # pinned to input order, so worker interleaving cannot leak in). The
  # drift sentinel must stay quiet on the in-distribution stream and trip
  # on a shifted one, and `wym obs report` must read the log back.
  SMOKE_DATA=results/smoke_pairs.csv
  SMOKE_SHIFTED=results/smoke_pairs_shifted.csv
  SMOKE_MODEL=results/model_smoke_cli.wyma
  OBS_DECISIONS=results/OBS_smoke_decisions.json
  echo "=== smoke: telemetry — generate data + train (freezes drift baseline) ==="
  if ! ./target/release/wym generate --dataset S-FZ --out "$SMOKE_DATA" --cap 200 --seed 42; then
    echo "SMOKE FAILED: wym generate" >&2
    exit 1
  fi
  if ! ./target/release/wym generate --dataset S-FZ --out "$SMOKE_SHIFTED" --cap 200 --seed 42 --shift; then
    echo "SMOKE FAILED: wym generate --shift" >&2
    exit 1
  fi
  rm -f "$SMOKE_MODEL"
  ./target/release/wym train --data "$SMOKE_DATA" --save-model "$SMOKE_MODEL" --epochs 4 \
    2>&1 | tee results/smoke_train.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: wym train --save-model" >&2
    exit 1
  fi
  AUDIT_REF=""
  AUDIT_REF_CK=""
  for variant in scalar:1 auto:1 auto:4; do
    K="${variant%%:*}"
    T="${variant##*:}"
    AUDIT="results/smoke_audit_${K}_t${T}.jsonl"
    # The sink appends by design (it is a service log); the gate wants
    # exactly this run's decisions, so start from an empty file.
    rm -f "$AUDIT"
    echo "=== smoke: classify --audit-log (WYM_KERNEL=$K, --threads $T) ==="
    WYM_KERNEL=$K ./target/release/wym classify --load-model "$SMOKE_MODEL" \
      --data "$SMOKE_DATA" --threads "$T" --audit-log "$AUDIT" \
      > "results/smoke_classify_${K}_t${T}.out" 2> "results/smoke_classify_${K}_t${T}.log"
    if [ $? -ne 0 ] || [ ! -f "$AUDIT" ]; then
      echo "SMOKE FAILED: classify (kernel=$K threads=$T) wrote no audit log" >&2
      cat "results/smoke_classify_${K}_t${T}.log" >&2
      exit 1
    fi
    CK=$(cksum "$AUDIT" | awk '{print $1 ":" $2}')
    if [ -z "$AUDIT_REF_CK" ]; then
      AUDIT_REF="$AUDIT"
      AUDIT_REF_CK="$CK"
    elif [ "$CK" != "$AUDIT_REF_CK" ]; then
      echo "SMOKE FAILED: audit log not byte-identical: $AUDIT ($CK) vs $AUDIT_REF ($AUDIT_REF_CK)" >&2
      exit 1
    fi
    if ! grep -q "drift: OK" "results/smoke_classify_${K}_t${T}.log"; then
      echo "SMOKE FAILED: drift sentinel not quiet on in-distribution stream (kernel=$K threads=$T):" >&2
      grep "drift:" "results/smoke_classify_${K}_t${T}.log" >&2
      exit 1
    fi
  done
  echo "=== smoke: drift sentinel on a shifted stream ==="
  ./target/release/wym classify --load-model "$SMOKE_MODEL" --data "$SMOKE_SHIFTED" \
    --threads 1 > /dev/null 2> results/smoke_classify_shifted.log
  if ! grep -q "drift: ALERT" results/smoke_classify_shifted.log; then
    echo "SMOKE FAILED: shifted stream did not trip the drift sentinel:" >&2
    grep "drift:" results/smoke_classify_shifted.log >&2
    exit 1
  fi
  echo "=== smoke: wym obs report ==="
  ./target/release/wym obs report --audit "$AUDIT_REF" | tee results/smoke_obs_report.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: wym obs report could not read $AUDIT_REF" >&2
    exit 1
  fi
  if ! grep -q "decisions" results/smoke_obs_report.log; then
    echo "SMOKE FAILED: wym obs report printed no decision summary" >&2
    exit 1
  fi
  # Traced classify snapshot — windowed metrics and drift gauges included —
  # against its committed baseline. --threads 1 for machine independence,
  # --ignore-wall as everywhere; obs.drift.* PSI gauges compare under the
  # sentinel's own tight relative tolerance (obs_diff --drift-rel, default
  # 1e-6).
  echo "=== smoke: obs_diff on the decision-telemetry snapshot ==="
  rm -f "$OBS_DECISIONS"
  ./target/release/wym classify --load-model "$SMOKE_MODEL" --data "$SMOKE_DATA" \
    --threads 1 --trace --metrics-out "$OBS_DECISIONS" \
    > /dev/null 2> results/smoke_classify_traced.log
  if [ ! -f "$OBS_DECISIONS" ]; then
    echo "SMOKE FAILED: traced classify wrote no $OBS_DECISIONS" >&2
    exit 1
  fi
  if ! ./target/release/obs_diff "$OBS_DECISIONS" "$OBS_DECISIONS"; then
    echo "SMOKE FAILED: obs_diff self-diff did not pass on $OBS_DECISIONS" >&2
    exit 1
  fi
  if [ -f results/OBS_baseline_decisions.json ]; then
    if ! ./target/release/obs_diff --ignore-wall results/OBS_baseline_decisions.json "$OBS_DECISIONS"; then
      echo "SMOKE FAILED: $OBS_DECISIONS regressed against results/OBS_baseline_decisions.json" >&2
      exit 1
    fi
  else
    echo "SMOKE WARNING: no committed baseline results/OBS_baseline_decisions.json; skipping diff" >&2
  fi
  # Schema-mismatch drill: a CSV whose attributes are not the model's must
  # be refused up front with an error naming both lists (exit 1), never
  # classified from misaligned values or panicking (exit 101).
  echo "=== smoke: schema-mismatch drill (wym classify, T-AB data, S-FZ model) ==="
  SCHEMA_DATA=results/smoke_schema_tab.csv
  if ! ./target/release/wym generate --dataset T-AB --out "$SCHEMA_DATA" --cap 20; then
    echo "SMOKE FAILED: wym generate --dataset T-AB" >&2
    exit 1
  fi
  ./target/release/wym classify --load-model "$SMOKE_MODEL" --data "$SCHEMA_DATA" \
    > /dev/null 2> results/smoke_schema.log
  RC=$?
  if [ "$RC" -ne 1 ]; then
    echo "SMOKE FAILED: wym classify exited $RC on a mismatched schema (want 1)" >&2
    cat results/smoke_schema.log >&2
    exit 1
  fi
  for csv in "$SMOKE_DATA" "$SCHEMA_DATA"; do
    ATTRS=$(head -1 "$csv" | tr -d '\r' | tr ',' '\n' | sed -n 's/^left_//p' | paste -sd, - | sed 's/,/, /g')
    if ! grep -qF "[$ATTRS]" results/smoke_schema.log; then
      echo "SMOKE FAILED: schema-mismatch error does not name [$ATTRS] (from $csv)" >&2
      cat results/smoke_schema.log >&2
      exit 1
    fi
  done
  # Hostile-bytes drill: readers of outside JSON must refuse crafted files
  # with an error. An abort (exit 134, e.g. reserving the 10^12-frame
  # ring the windows file declares) or a panic (exit 101, e.g. on the
  # decreasing bounds) fails the smoke, as does any status other than
  # the expected error.
  echo "=== smoke: hostile-bytes drill (obs_diff, wym obs flight) ==="
  HOSTILE_WINDOWS=results/smoke_hostile_windows.json
  HOSTILE_BOUNDS=results/smoke_hostile_bounds.json
  HOSTILE_NESTING=results/smoke_hostile_nesting.json
  printf '{"windows": {"capacity": 1000000000000, "advances": 1, "frames": []}}\n' \
    > "$HOSTILE_WINDOWS"
  printf '{"histograms": {"h": {"bounds": [0.9, 0.1], "counts": [0, 1, 0]}}}\n' \
    > "$HOSTILE_BOUNDS"
  head -c 100000 /dev/zero | tr '\0' '[' > "$HOSTILE_NESTING"
  for f in "$HOSTILE_WINDOWS" "$HOSTILE_BOUNDS"; do
    ./target/release/obs_diff results/OBS_baseline_decisions.json "$f" \
      > /dev/null 2> results/smoke_hostile.log
    RC=$?
    if [ "$RC" -ne 2 ]; then
      echo "SMOKE FAILED: obs_diff exited $RC on hostile $f (want 2, a file error)" >&2
      cat results/smoke_hostile.log >&2
      exit 1
    fi
  done
  ./target/release/wym obs flight "$HOSTILE_NESTING" > /dev/null 2> results/smoke_hostile.log
  RC=$?
  if [ "$RC" -ne 1 ]; then
    echo "SMOKE FAILED: wym obs flight exited $RC on hostile $HOSTILE_NESTING (want 1)" >&2
    cat results/smoke_hostile.log >&2
    exit 1
  fi
  # Flight-recorder gate (DESIGN.md §15). Three drills: (1) a run with an
  # injected panic in score_train must die nonzero AND leave a post-mortem
  # dump pair whose Chrome trace parses via `wym obs flight` and names the
  # panicking span; (2) a run with an injected stall must trip the
  # watchdog's stall warning, dump, and still finish cleanly; (3) a
  # healthy run must export its full event tail with --chrome-trace.
  # Injected runs write no results file (the harness checks the injection
  # latch), so these drills cannot replace results/smoke_timing.json.
  FLIGHT_PANIC=results/FLIGHT_timing_panic.trace.json
  FLIGHT_STALL=results/FLIGHT_timing_stall.trace.json
  FLIGHT_EXPORT=results/smoke_flight.trace.json
  rm -f "$FLIGHT_PANIC" results/FLIGHT_timing_panic.txt \
        "$FLIGHT_STALL" results/FLIGHT_timing_stall.txt "$FLIGHT_EXPORT"
  echo "=== smoke: flight recorder — injected panic in score_train ==="
  WYM_STALL_MS=0 ./target/release/timing --quick --cap 40 --datasets S-FZ \
    --threads 1 --inject-panic score_train 2>&1 | tee results/smoke_flight_panic.log
  if [ "${PIPESTATUS[0]}" -eq 0 ]; then
    echo "SMOKE FAILED: injected-panic run exited zero" >&2
    exit 1
  fi
  if [ ! -f "$FLIGHT_PANIC" ]; then
    echo "SMOKE FAILED: injected panic left no dump at $FLIGHT_PANIC" >&2
    exit 1
  fi
  ./target/release/wym obs flight "$FLIGHT_PANIC" | tee results/smoke_flight_panic_summary.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: wym obs flight could not summarize $FLIGHT_PANIC" >&2
    exit 1
  fi
  if ! grep -q "score_train" results/smoke_flight_panic_summary.log; then
    echo "SMOKE FAILED: panic dump summary does not name the panicking span score_train" >&2
    exit 1
  fi
  echo "=== smoke: flight recorder — injected stall in score_train ==="
  WYM_STALL_MS=500 ./target/release/timing --quick --cap 40 --datasets S-FZ \
    --threads 1 --inject-stall score_train,2000 2>&1 | tee results/smoke_flight_stall.log
  if [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "SMOKE FAILED: injected-stall run did not finish cleanly" >&2
    exit 1
  fi
  if ! grep -q "stall watchdog" results/smoke_flight_stall.log; then
    echo "SMOKE FAILED: watchdog printed no stall warning for the injected stall" >&2
    exit 1
  fi
  if [ ! -f "$FLIGHT_STALL" ]; then
    echo "SMOKE FAILED: stall watchdog left no dump at $FLIGHT_STALL" >&2
    exit 1
  fi
  ./target/release/wym obs flight "$FLIGHT_STALL" | tee results/smoke_flight_stall_summary.log
  if [ "${PIPESTATUS[0]}" -ne 0 ] || \
     ! grep -q "score_train" results/smoke_flight_stall_summary.log; then
    echo "SMOKE FAILED: stall dump does not summarize or misses score_train" >&2
    exit 1
  fi
  echo "=== smoke: flight recorder — full-run --chrome-trace export ==="
  ./target/release/wym classify --load-model "$SMOKE_MODEL" --data "$SMOKE_DATA" \
    --threads 1 --chrome-trace "$FLIGHT_EXPORT" > /dev/null 2> results/smoke_flight_export.log
  if [ ! -f "$FLIGHT_EXPORT" ]; then
    echo "SMOKE FAILED: --chrome-trace wrote no $FLIGHT_EXPORT" >&2
    cat results/smoke_flight_export.log >&2
    exit 1
  fi
  ./target/release/wym obs flight "$FLIGHT_EXPORT" | tee results/smoke_flight_export_summary.log
  if [ "${PIPESTATUS[0]}" -ne 0 ] || \
     ! grep -q "score" results/smoke_flight_export_summary.log; then
    echo "SMOKE FAILED: --chrome-trace export does not summarize or holds no scoring spans" >&2
    exit 1
  fi
  # Clean-tree gate: every output above is gitignored, so the tracked
  # files must be exactly as the run found them.
  if [ -z "$TREE_START" ]; then
    echo "=== smoke: clean-tree gate — SKIP (not a git checkout) ==="
  elif [ "$(tree_fingerprint)" != "$TREE_START" ]; then
    echo "SMOKE FAILED: the smoke run changed tracked files (git diff HEAD moved); now differing from HEAD:" >&2
    git status --porcelain --untracked-files=no >&2
    exit 1
  fi
  DISPATCHED=$(grep -oE '"kernel\.dispatch\.[a-z0-9_]+"' "$OBS_AUTO" | head -1)
  echo "SMOKE OK: all stages traced, $DISPATCHED == scalar checksum $CK_AUTO, blocking checksum $BCK_AUTO, artifact fnv $AFNV_AUTO, audit cksum $AUDIT_REF_CK, obs_diff clean ($OBS_AUTO, $OBS_SCALAR, $BLOCK_SCALAR, $OBS_DECISIONS), flight drills clean (panic, stall, chrome export), hostile files refused, tracked files unchanged"
  exit 0
fi

ARGS="${@:-}"
# A --quick run's logs go next to its results/smoke_<exp>.json files.
LOG_PREFIX=""
for arg in "$@"; do
  [ "$arg" = --quick ] && LOG_PREFIX=smoke_
done
for exp in table2 figure4 table3 table5 figure6 figure8 figure9 timing user_study_proxy threshold_sweep hybrid_units error_analysis table4 figure5 figure7; do
  echo "=== $exp ==="
  ./target/release/$exp $ARGS 2>&1 | tee "results/${LOG_PREFIX}$exp.log"
done
echo "ALL EXPERIMENTS DONE"
