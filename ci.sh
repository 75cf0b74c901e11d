#!/usr/bin/env bash
# Continuous-integration entry point. Everything runs OFFLINE: the
# default workspace depends only on sibling path crates (enforced by
# pcqe-lint rule PCQE-H001 and tests/hermetic_guard.rs), so a
# network-less runner with an empty cargo registry builds and tests the
# whole repository.
#
# Usage: ./ci.sh [--no-clippy] [--stage <name>]...
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
  lint-artifact
  build
  test
  smoke-metrics
  smoke-explain
  trace-smoke
  bench-build
  bench-e2e-check
)

stage_fmt() { # formatting (cargo fmt --check)
  cargo fmt --all --check
}

stage_clippy() { # lints (cargo clippy -D warnings)
  if [ "$NO_CLIPPY" -eq 1 ]; then
    echo "clippy skipped (--no-clippy)"
    return 0
  fi
  cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_lint() { # static invariants (cargo run -p pcqe-lint)
  # One analyzer, three layers; `cargo run -p pcqe-lint -- --list-rules`
  # prints the rule registry, DESIGN.md § "Static invariants" says what
  # each rule protects. Exceptions, capability grants and flow
  # declarations all live in lint.toml, every entry with a reason.
  cargo run -q -p pcqe-lint --offline
}

stage_lint_artifact() { # lint reports (results/lint.json + lint.sarif) and the regression gate
  # The same analysis as machine-readable CI artifacts: the JSON report
  # and the SARIF 2.1.0 export (editors and review tooling ingest it
  # directly; dataflow witnesses ride along as code flows). The JSON is
  # validated with the in-repo parser — exporter and parser agree end
  # to end without external tooling — and then held to the checked-in
  # baseline: every count there is a ceiling, total errors and
  # suppressions plus the per-rule counts, so new violations and new
  # suppressions both fail CI even when the totals happen to stay flat.
  mkdir -p results
  cargo run -q -p pcqe-lint --offline -- --format json > results/lint.json
  cargo run -q -p pcqe-lint --offline -- --format sarif > results/lint.sarif
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- \
    --schema lint --gate results/baseline_lint.json results/lint.json
}

stage_build() { # release build (offline)
  cargo build --release --offline
}

stage_test() { # tests (offline, whole workspace)
  cargo test -q --offline --workspace
}

stage_smoke_metrics() { # observability smoke export (quickstart -> results/metrics.json)
  # The quickstart example ends by exporting its metrics snapshot; the
  # in-repo JSON parser then validates the document, proving the
  # exporter and parser agree end to end without any external tooling.
  cargo run -q --offline --example quickstart > /dev/null
  cargo run -q --offline -p pcqe-obs --bin pcqe-obs-validate -- results/metrics.json
}

stage_smoke_explain() { # EXPLAIN smoke (.plan on the § 3.1 running example, then across .index)
  # Pipe the paper's running-example schema and query through the shell
  # and assert the physical planner's choices show up in the
  # side-by-side plan: the residual filter is pushed into the Proposal
  # scan and the small build side makes the join a nested loop. Then the
  # index access path, the only stage that sees one: after `.index`, a
  # two-conjunct query plans an IndexScan whose filter is still the whole
  # predicate, and a statement that raises prints the same error line
  # before and after the index exists. The shell's stderr is captured and
  # surfaced on failure — a panic in the heredoc must be reported as
  # itself, not as a grep miss.
  local plan_out stderr_file status=0
  stderr_file="$(mktemp)"
  plan_out="$(cargo run -q --offline --example shell 2>"$stderr_file" <<'EOF'
CREATE TABLE Proposal (company TEXT, proposal TEXT, funding REAL);
CREATE TABLE CompanyInfo (company TEXT, income REAL);
INSERT INTO Proposal VALUES ('ABC', 'p7', 500000.0) WITH CONFIDENCE 0.8;
INSERT INTO CompanyInfo VALUES ('ABC', 900000.0) WITH CONFIDENCE 0.9;
.plan SELECT DISTINCT CompanyInfo.company, income FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company WHERE funding < 1000000.0
CREATE TABLE t (grp INT, n INT, s TEXT);
INSERT INTO t VALUES (0, 7, 'boom'), (1, NULL, NULL);
SELECT * FROM t WHERE s > 1 AND grp = 1
.index t grp
SELECT * FROM t WHERE s > 1 AND grp = 1
.plan SELECT * FROM t WHERE s <> 'x' AND grp = 0
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
  echo "$plan_out" | grep -q "NestedLoopJoin" || {
    echo "EXPLAIN smoke: expected NestedLoopJoin in .plan output" >&2
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
    echo "EXPLAIN smoke: expected the same error line before and after .index" >&2
    echo "$plan_out" >&2
    return 1
  }
  echo "EXPLAIN smoke OK (nested-loop join, pushed residual filter; index scan keeps the whole predicate, same error across .index)"
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
  echo "$out" | grep -q '"name": "decision"' || {
    echo "trace smoke: expected a per-tuple decision event in the trace" >&2
    return 1
  }
  # A truncated timeline would make the check above meaningless: the
  # exporter reports how many events the buffer had to drop.
  grep -q '^  "dropped": 0,$' results/trace_chrome.json || {
    echo "trace smoke: the tracer dropped events (or the count is missing):" >&2
    grep '"dropped"' results/trace_chrome.json >&2
    return 1
  }
  echo "trace smoke OK (Chrome trace validated, decision event present, nothing dropped)"
}

stage_bench_build() { # bench workspace builds, bench targets included (offline, detached)
  # --all-targets: the five `harness = false` [[bench]] targets name
  # engine types (CompiledLineage, the solver modules) that neither
  # `cargo build` nor `cargo test` compiles.
  ( cd crates/bench && cargo build --offline --all-targets && cargo test -q --offline )
}

stage_bench_e2e_check() { # end-to-end benchmark builds and its checks hold (run.sh --check)
  # The e2e benchmark is a detached package nothing else compiles, and
  # its adapter.rs names engine symbols stage by stage: a rename of any
  # of them would otherwise break the benchmark silently. --check builds
  # it and runs tiny op counts with every reply check on — the staged
  # replay's digests must equal `Database`'s on all four workloads.
  crates/bench/benches/e2e/run.sh --check
}

# ---------------------------------------------------------------------------
# Driver: argument parsing, per-stage timing, summary table.

NO_CLIPPY=0
SELECTED=()
while [ $# -gt 0 ]; do
  case "$1" in
    --no-clippy) NO_CLIPPY=1 ;;
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
      echo "usage: ./ci.sh [--no-clippy] [--stage <name>]... [--list]"
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
