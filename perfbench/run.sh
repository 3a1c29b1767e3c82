#!/usr/bin/env bash
# Build the swap server and the benchmark from source, then run one
# benchmark measurement:
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Build output goes to .bench_build/ and
# run files (sockets, logs, traces) to .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
build_dir=.bench_build
if ! dune build --root . --build-dir "$build_dir" --profile release \
    ./bin/swap_cli.exe ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec "$build_dir/default/perfbench/main.exe" \
  --server-exe "$build_dir/default/bin/swap_cli.exe" "$@"
