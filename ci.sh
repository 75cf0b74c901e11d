#!/usr/bin/env bash
# Continuous-integration entry point. Everything runs OFFLINE: the
# default workspace depends only on sibling path crates (enforced by
# tests/hermetic_guard.rs), so a network-less runner with an empty cargo
# registry builds and tests the whole repository.
#
# Usage: ./ci.sh [--stage <name>]...
#
# With no --stage arguments every stage runs in registry order; each
# --stage selects one stage by name (repeatable, run in the order
# given), which is how .github/workflows/ci.yml fans the pipeline out
# across parallel jobs. `./ci.sh --list` prints the registry. A
# wall-time summary table is printed at the end of every run — including
# failed ones, so slow or broken stages are visible at a glance.
set -euo pipefail
cd "$(dirname "$0")"

# ---------------------------------------------------------------------------
# Stage registry. Names are the --stage vocabulary; tests/hermetic_guard.rs
# fails when ci.yml does not run each of them exactly once.

STAGES=(
  fmt
  clippy
  lint
  doc
  build
  test
  smoke-metrics
  smoke-explain
  trace-smoke
  examples
  bench-build
  bench-e2e-check
)

stage_fmt() { # formatting (cargo fmt --check)
  cargo fmt --all --check
}

stage_clippy() { # lints (cargo clippy -D warnings)
  # Holds every invariant clippy can state (clippy.toml says which): the
  # wall clock, ambient randomness, HashMap/HashSet, concurrency
  # containment, the one float order, and panicking constructs (every
  # crate root denies them). Each exception is an item-level #[expect],
  # so an unneeded one fails here; tests/lint_guard.rs lists them all.
  cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_lint() { # static invariants (cargo run -p pcqe-lint)
  # What the compiler cannot see: one analyzer, three layers (float
  # literals; index sites and the policy gate's call paths; dataflow);
  # `cargo run -p pcqe-lint --
  # --list-rules` prints the rule registry, DESIGN.md § "Static
  # invariants" says what each rule protects. Exceptions and flow
  # declarations all live in lint.toml, every entry with a reason. How
  # many findings each rule may have suppressed is a table in
  # tests/lint_guard.rs, held by the `test` stage (and plain `cargo test`).
  cargo run -q -p pcqe-lint --offline
}

stage_doc() { # API docs build without a warning (cargo doc -D warnings)
  # Broken or private intra-doc links fail here, not in a reader's browser.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

stage_build() { # release build (offline)
  cargo build --release --offline
}

stage_test() { # tests (offline, whole workspace)
  cargo test -q --offline --workspace
}

stage_smoke_metrics() { # observability smoke export (quickstart -> results/metrics.json)
  # The quickstart example ends by exporting its metrics snapshot; the
  # in-repo JSON parser then validates the document (its `counters` and
  # `spans` members), proving the exporter and parser agree end to end
  # without any external tooling.
  cargo run -q --offline --example quickstart > /dev/null
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- results/metrics.json
}

stage_smoke_explain() { # EXPLAIN smoke (EXPLAIN on the § 3.1 running example, then across CREATE INDEX; statement-cache hits)
  # Pipe the paper's running-example schema and query through the shell
  # and assert the physical planner's choices show up in the
  # side-by-side plan `EXPLAIN` prints: the residual filter is pushed into
  # the Proposal scan and the TEXT key pair makes the join a hash join,
  # while a join on a comparison, with no key pair, is a nested loop.
  # Then the index access path, the only stage that sees one: after
  # `CREATE INDEX`, a two-conjunct query plans an IndexScan whose filter is
  # still the whole predicate, and a statement that raises prints the same
  # error line before and after the index exists. The shell's stderr is
  # captured and surfaced on failure — a panic in the heredoc must be
  # reported as itself, not as a grep miss.
  local plan_out stderr_file status=0
  stderr_file="$(mktemp)"
  plan_out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE Proposal (company TEXT, proposal TEXT, funding REAL);
CREATE TABLE CompanyInfo (company TEXT, income REAL);
INSERT INTO Proposal VALUES ('ABC', 'p7', 500000.0) WITH CONFIDENCE 0.8;
INSERT INTO CompanyInfo VALUES ('ABC', 900000.0) WITH CONFIDENCE 0.9;
EXPLAIN SELECT DISTINCT CompanyInfo.company, income FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company WHERE funding < 1000000.0
EXPLAIN SELECT proposal FROM Proposal JOIN CompanyInfo ON funding > income
CREATE TABLE t (grp INT, n INT, s TEXT);
INSERT INTO t VALUES (0, 7, 'boom'), (1, NULL, NULL);
SELECT * FROM t WHERE s > 1 AND grp = 1
CREATE INDEX ON t (grp);
SELECT * FROM t WHERE s > 1 AND grp = 1
EXPLAIN SELECT * FROM t WHERE s <> 'x' AND grp = 0
.quit
EOF
)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "EXPLAIN smoke: shell exited with status $status; stderr follows" >&2
    cat "$stderr_file" >&2
    rm -f "$stderr_file"
    return 1
  fi
  rm -f "$stderr_file"
  echo "$plan_out" | grep -qF "HashJoin [#0 = #3]" || {
    echo "EXPLAIN smoke: expected the § 3.1 join as HashJoin [#0 = #3]" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "$plan_out" | grep -qF "NestedLoopJoin [(#2 > #4)]" || {
    echo "EXPLAIN smoke: expected the comparison join as NestedLoopJoin [(#2 > #4)]" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "$plan_out" | grep -q "TableScan Proposal \[filter:" || {
    echo "EXPLAIN smoke: expected pushed filter on the Proposal scan" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "$plan_out" | grep -qF "IndexScan t (grp = 0) [filter: ((#2 <> 'x') AND (#0 = 0))]" || {
    echo "EXPLAIN smoke: expected an IndexScan filtered by the whole predicate" >&2
    echo "$plan_out" >&2
    return 1
  }
  [ "$(echo "$plan_out" | grep -cF "error: algebra: type error: cannot compare boom with 1")" -eq 2 ] || {
    echo "EXPLAIN smoke: expected the same error line before and after CREATE INDEX" >&2
    echo "$plan_out" >&2
    return 1
  }
  # The statement cache: one SELECT shape at two literals must count a
  # hit in `.metrics`; after CREATE INDEX the shape's next run must miss
  # (the index changed what the planner reads). An INSERT and a repeated
  # CREATE INDEX change no plan: the shape's next run after them learns it
  # and hits, and no miss is counted.
  stderr_file="$(mktemp)"
  plan_out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE u (k INT, v TEXT);
INSERT INTO u VALUES (1, 'a'), (2, 'b');
SELECT v FROM u WHERE k = 1
SELECT v FROM u WHERE k = 2
.metrics
CREATE INDEX ON u (k);
SELECT v FROM u WHERE k = 3
.metrics
INSERT INTO u VALUES (4, 'd');
CREATE INDEX ON u (k);
SELECT v FROM u WHERE k = 4
.metrics
.quit
EOF
)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "EXPLAIN smoke: statement-cache shell exited with status $status; stderr follows" >&2
    cat "$stderr_file" >&2
    rm -f "$stderr_file"
    return 1
  fi
  rm -f "$stderr_file"
  # A counter's n-th value in the transcript, i.e. in the n-th `.metrics`
  # export that has it (0 when there is none), prompts stripped first.
  counter() { echo "$plan_out" | sed -e 's/^\(pcqe> \)*//' | awk -v name="pcqe_$1" -v nth="$2" '
    $1 == name && ++seen == nth { value = $2 }
    END { print value + 0 }'; }
  local hits misses_before misses_after hits_kept hits_after_writes misses_after_writes
  hits="$(counter plan_cache_hit 1)"
  misses_before="$(counter plan_cache_miss 1)"
  misses_after="$(counter plan_cache_miss 2)"
  hits_kept="$(counter plan_cache_hit 2)"
  hits_after_writes="$(counter plan_cache_hit 3)"
  misses_after_writes="$(counter plan_cache_miss 3)"
  [ "$hits" -ge 1 ] || {
    echo "EXPLAIN smoke: expected a statement-cache hit for one shape at two literals, got $hits" >&2
    echo "$plan_out" >&2
    return 1
  }
  [ "$misses_after" -gt "$misses_before" ] || {
    echo "EXPLAIN smoke: expected a statement-cache miss after CREATE INDEX ($misses_before -> $misses_after)" >&2
    echo "$plan_out" >&2
    return 1
  }
  [ "$hits_after_writes" -gt "$hits_kept" ] && [ "$misses_after_writes" -eq "$misses_after" ] || {
    echo "EXPLAIN smoke: expected a hit and no miss after INSERT and a repeated CREATE INDEX (hits $hits_kept -> $hits_after_writes, misses $misses_after -> $misses_after_writes)" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "EXPLAIN smoke OK (hash join on a key pair, nested loop without one, pushed residual filter; index scan keeps the whole predicate, same error across CREATE INDEX; statement cache: $hits hit, a miss after CREATE INDEX, a hit after INSERT and a repeated CREATE INDEX)"
}

stage_trace_smoke() { # causal-trace smoke (.trace on the § 3.1 example -> results/trace_chrome.json)
  # Pipe the paper's running example through the shell, trace the query
  # and validate the exported Chrome trace-event document with the
  # in-repo parser. The interactive prompt interleaves with piped
  # output, so the prompt prefixes are stripped and the JSON document is
  # cut out of the session transcript before validation.
  local out stderr_file status=0
  mkdir -p results
  stderr_file="$(mktemp)"
  out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE Proposal (company TEXT, proposal TEXT, funding REAL);
CREATE TABLE CompanyInfo (company TEXT, income REAL);
INSERT INTO Proposal VALUES ('SkyCam', 'drone v1', 800000.0) WITH CONFIDENCE 0.3;
INSERT INTO Proposal VALUES ('SkyCam', 'drone v2', 900000.0) WITH CONFIDENCE 0.4;
INSERT INTO CompanyInfo VALUES ('SkyCam', 500000.0) WITH CONFIDENCE 0.1;
.policy Manager investment 0.06
.user mark Manager
.purpose investment
.trace SELECT DISTINCT CompanyInfo.company, income FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company WHERE funding < 1000000.0 json
.quit
EOF
)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "trace smoke: shell exited with status $status; stderr follows" >&2
    cat "$stderr_file" >&2
    rm -f "$stderr_file"
    return 1
  fi
  rm -f "$stderr_file"
  echo "$out" | sed -e 's/^\(pcqe> \)*//' \
    | awk '/^\{$/{f=1} f{print} /^\}$/{f=0}' > results/trace_chrome.json
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema trace results/trace_chrome.json
  # Every layer reports through the one Observer trait, so a routing
  # mistake silences a whole layer: require one event from each, and name
  # the layer that went quiet.
  local layer pattern
  while IFS='|' read -r layer pattern; do
    grep -q "$pattern" results/trace_chrome.json || {
      echo "trace smoke: no $layer event ($pattern) in the trace" >&2
      return 1
    }
  done <<'LAYERS'
policy gate|"name": "decision"
executor|"name": "op:
circuit cache|"name": "cache\.
LAYERS
  # A truncated timeline would make the check above meaningless: the
  # exporter reports how many events the buffer had to drop.
  grep -q '^  "dropped": 0,$' results/trace_chrome.json || {
    echo "trace smoke: the tracer dropped events (or the count is missing):" >&2
    grep '"dropped"' results/trace_chrome.json >&2
    return 1
  }
  echo "trace smoke OK (Chrome trace validated, an event from every layer, nothing dropped)"
}

stage_examples() { # walkthrough examples run to completion (release)
  # `build` and `test` only compile the walkthroughs. Each one exits
  # non-zero when an assertion or `expect` in it fails or an engine call
  # returns an error (the § 3.1 arithmetic, the proposals applied, the
  # runtime model batch_queries fits), so running them checks the story
  # they tell. Together they take well under a second in release.
  local example
  for example in batch_queries clinical_registry sales_dashboard venture_capital; do
    cargo run -q --release --offline --example "$example" > /dev/null
  done
  echo "examples OK (batch_queries, clinical_registry, sales_dashboard, venture_capital)"
}

stage_bench_build() { # bench workspace builds, lints clean and tests pass, bench targets included (offline, detached)
  # --all-targets: the six `harness = false` [[bench]] targets name
  # engine types (CompiledLineage, the solver modules) that neither
  # `cargo build` nor `cargo test` compiles. The root clippy stage does
  # not reach this detached workspace, so it is linted here.
  ( cd crates/bench && cargo build --offline --all-targets \
      && cargo clippy --offline --all-targets -- -D warnings \
      && cargo test -q --offline )
}

stage_bench_e2e_check() { # end-to-end benchmark builds, its checks hold and its checksums are the recorded ones (run.sh --check)
  # The e2e benchmark is a detached package nothing else compiles, and
  # its adapter.rs names engine symbols stage by stage: a rename of any
  # of them would otherwise break the benchmark silently. --check builds
  # it and runs tiny op counts with every reply check on — the staged
  # replay's digests must equal `Database`'s on all four workloads. Each
  # workload's round checksum must then be the one
  # results/e2e_check_checksums.txt records. Building the package
  # rewrites its Cargo.lock; the stage puts the file back as it found it,
  # so a run leaves the work tree as it was.
  local out expected actual status=0
  local lock=crates/bench/benches/e2e/Cargo.lock saved
  saved="$(mktemp)"
  cp "$lock" "$saved"
  out="$(crates/bench/benches/e2e/run.sh --check)" || status=$?
  cp "$saved" "$lock"
  rm -f "$saved"
  echo "$out"
  expected="$(awk '!/^#/ && NF { print $1, $2 }' results/e2e_check_checksums.txt)"
  actual="$(echo "$out" | awk '
    / checksum / { for (i = 1; i < NF; i++) if ($i == "checksum") { sum = $(i + 1); sub(",", "", sum) } }
    /^check / { name = $2; sub(":", "", name); print name, sum }')"
  if [ "$expected" != "$actual" ]; then
    echo "bench-e2e-check: checksums differ from results/e2e_check_checksums.txt" >&2
    echo "recorded:" >&2
    echo "$expected" >&2
    echo "this run:" >&2
    echo "$actual" >&2
    return 1
  fi
  return "$status"
}

# ---------------------------------------------------------------------------
# Driver: argument parsing, per-stage timing, summary table.

SELECTED=()
while [ $# -gt 0 ]; do
  case "$1" in
    --stage)
      shift
      [ $# -gt 0 ] || { echo "--stage needs a name (see ./ci.sh --list)" >&2; exit 2; }
      SELECTED+=("$1")
      ;;
    --list)
      printf '%s\n' "${STAGES[@]}"
      exit 0
      ;;
    -h|--help)
      echo "usage: ./ci.sh [--stage <name>]... [--list]"
      exit 0
      ;;
    *) echo "unknown argument: $1 (try --help)" >&2; exit 2 ;;
  esac
  shift
done

known_stage() {
  local name
  for name in "${STAGES[@]}"; do
    [ "$name" = "$1" ] && return 0
  done
  return 1
}

for name in ${SELECTED[@]+"${SELECTED[@]}"}; do
  if ! known_stage "$name"; then
    echo "unknown stage: $name (available: ${STAGES[*]})" >&2
    exit 2
  fi
done
if [ "${#SELECTED[@]}" -eq 0 ]; then
  SELECTED=("${STAGES[@]}")
fi

SUMMARY_NAMES=()
SUMMARY_NANOS=()
SUMMARY_STATUS=()
CURRENT_STAGE=""
CURRENT_T0=0
PIPELINE_T0=$(date +%s%N)

print_summary() {
  local code=$?
  # A stage that was entered but never recorded is the one that failed.
  if [ -n "$CURRENT_STAGE" ]; then
    SUMMARY_NAMES+=("$CURRENT_STAGE")
    SUMMARY_NANOS+=($(($(date +%s%N) - CURRENT_T0)))
    SUMMARY_STATUS+=("FAILED")
  fi
  if [ "${#SUMMARY_NAMES[@]}" -eq 0 ]; then
    return "$code"
  fi
  printf '\n%-18s %-8s %10s\n' "stage" "status" "time"
  printf '%-18s %-8s %10s\n' "-----" "------" "----"
  local i total=0
  for i in "${!SUMMARY_NAMES[@]}"; do
    total=$((total + SUMMARY_NANOS[i]))
    printf '%-18s %-8s %9s.%02ds\n' "${SUMMARY_NAMES[$i]}" "${SUMMARY_STATUS[$i]}" \
      "$((SUMMARY_NANOS[i] / 1000000000))" "$((SUMMARY_NANOS[i] % 1000000000 / 10000000))"
  done
  printf '%-18s %-8s %9s.%02ds\n' "total" "" \
    "$((total / 1000000000))" "$((total % 1000000000 / 10000000))"
  return "$code"
}
trap print_summary EXIT

for name in "${SELECTED[@]}"; do
  printf '\n==> stage: %s\n' "$name"
  CURRENT_STAGE="$name"
  CURRENT_T0=$(date +%s%N)
  "stage_${name//-/_}"
  SUMMARY_NAMES+=("$name")
  SUMMARY_NANOS+=($(($(date +%s%N) - CURRENT_T0)))
  SUMMARY_STATUS+=("ok")
  CURRENT_STAGE=""
done

printf '\n==> ci.sh: all selected stages passed (%d of %d in the registry)\n' \
  "${#SELECTED[@]}" "${#STAGES[@]}"
