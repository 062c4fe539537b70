#!/usr/bin/env bash
# Builds distald and the ledger from source, then runs the ledger with the
# given arguments from the repository root, e.g.
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
# The dune cache stays off so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./bin/distald.exe ./perfbench/ledger.exe >&2
exec ./_build/default/perfbench/ledger.exe "$@"
