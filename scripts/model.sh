#!/usr/bin/env bash
# Concurrency model-check gate: exhaustively explores thread interleavings
# of the certified concurrent surfaces under the cnnre-model cooperative
# scheduler (bounded preemptions + sleep-set pruning; see DESIGN.md §12).
#
#   - cnnre-model: shim/engine self-tests plus the three seeded defect
#     fixtures (data race, AB-BA deadlock, lost update), each pinned to a
#     byte-exact replay schedule string;
#   - crates/core exec: the `map_ordered` fan-out (ordered reduction over
#     two workers);
#   - crates/obs: registry creation/increment race, profile ring slot
#     claim race, HTTP server shutdown/quit protocol.
#
# Usage: scripts/model.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cnnre-model: engine self-tests + seeded defect fixtures"
cargo test -q -p cnnre-model --features model-check

echo "==> exec map_ordered (crates/core, model-check)"
cargo test -q -p cnnre-attacks --features model-check --test model_exec

echo "==> obs concurrent surfaces (registry, profile ring, HTTP server)"
cargo test -q -p cnnre-obs --features model-check --lib

echo "Model check passed."
