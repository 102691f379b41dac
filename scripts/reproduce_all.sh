#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the ablation studies.
# Usage: scripts/reproduce_all.sh [outdir]
#
# Each binary runs its simulation grid through the shared CampaignClient on
# a rayon pool; export RAYON_NUM_THREADS=N to bound the workers
# (results are bit-identical at any worker count).
set -euo pipefail
out="${1:-reproduction-output}"
mkdir -p "$out"
bins=(
  tab05_error_rates fig03_overhead tab01_simplified_verification
  tab04_access_classification fig05_memory_energy fig06_system_energy
  fig07_performance fig08_weak_scaling fig09_strong_scaling
  fig10_dgms_comparison cases_error_handling
  ablation_error_registers ablation_verify_interval ablation_row_policy
  ablation_mlp ablation_device_width sdc_study scrub_study
  monte_carlo_campaign checkpoint_vs_abft arch_overview extended_kernels
)
cargo build --release -p abft-bench
for b in "${bins[@]}"; do
  echo "=== $b ==="
  cargo run -q --release -p abft-bench --bin "$b" | tee "$out/$b.txt"
done
echo "All artifacts written to $out/"
