#!/usr/bin/env bash
# Build the benchmark and the bisad daemon from source, then run one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload report --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune project here)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"

dune build --root . --display quiet perfbench/main.exe bin/bisad.exe 1>&2
exec ./_build/default/perfbench/main.exe --bisad ./_build/default/bin/bisad.exe "$@"
