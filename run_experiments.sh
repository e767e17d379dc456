#!/bin/bash
# Regenerates every table and figure of the CHET paper's evaluation.
# Outputs land in results/. See EXPERIMENTS.md for the index and flags.
#
# Defaults are sized for a single-core CI budget: reduced networks and
# per-binary --nets caps. For the full sweep use:
#   for b in table1_hisa_costs table3_networks table4_parameters \
#            table5_layouts_seal table6_layouts_heaan fig5_latency \
#            fig6_cost_model fig7_rotation_keys; do
#     cargo run --release -p chet-bench --bin $b -- --full --images 20
#   done
set -u
cd "$(dirname "$0")"
mkdir -p results
run() {
  local name=$1; shift
  local cap=$1; shift
  echo "=== $name ($*) ==="
  timeout --foreground "$cap" cargo run --release -q -p chet-bench --bin "$name" -- "$@" 2>&1 | tee "results/$name.txt"
}
run table4_parameters    6m
run table3_networks      8m
run table1_hisa_costs    6m
run ablation_matmul      6m
run ablation_masking     6m --nets 2
run fig7_rotation_keys   9m --nets 1
run table5_layouts_seal  11m --nets 2
run table6_layouts_heaan 6m --nets 1
run fig5_latency         7m --nets 1
run fig6_cost_model      6m --nets 1
echo "all experiments done"
