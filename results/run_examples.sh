#!/bin/sh
set -e
cd "$(dirname "$0")/.."
for ex in quickstart fault_injection_campaign custom_workload ablation_sweep; do
  echo "=== examples/$ex.py ==="
  python "examples/$ex.py" > "results/example_$ex.txt" 2>&1 && echo OK || echo FAILED
done
