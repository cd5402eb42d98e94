#!/bin/sh
# Run every example, writing its output to results/example_<name>.txt.
# Exits non-zero if any example fails (after running all of them).
cd "$(dirname "$0")/.."
status=0
for ex in quickstart fault_injection_campaign custom_workload ablation_sweep; do
  echo "=== examples/$ex.py ==="
  if PYTHONPATH=src python "examples/$ex.py" > "results/example_$ex.txt" 2>&1; then
    echo OK
  else
    echo FAILED
    status=1
  fi
done
exit "$status"
