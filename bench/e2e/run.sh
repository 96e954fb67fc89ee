#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs every workload N times
# (alternating order), printing the median and quartiles per metric:
#
#   bench/e2e/run.sh [--repeat=N] [--seed=S] [--seconds=T] [--trace] [--out=F]
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" repeat "$@"
