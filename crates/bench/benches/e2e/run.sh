#!/usr/bin/env bash
# Build the e2e benchmark (release, offline) and run it.
#
#   run.sh                       every workload, end to end and traced
#   run.sh --check               tiny op counts, checks only (< 10 s after the build)
#   run.sh --workload lookup --seed 7 --seconds 24 --trace 0
#                                one run; the arguments go to the binary as given
#
# Works from any directory; honours CARGO_TARGET_DIR.
set -euo pipefail

manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/Cargo.toml"

e2e() {
    cargo run --quiet --release --offline --manifest-path "$manifest" -- "$@"
}

if [ "$#" -gt 0 ]; then
    e2e "$@"
    exit
fi

for workload in lookup analytics strategy improve_loop; do
    e2e --workload "$workload" --trace 0
    e2e --workload "$workload" --trace 1
done
