"""Run one hovi benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload global-bvp --seed 1 --seconds 25 --trace 0

Workloads: global-bvp, beam-free-time, ocp-desk, sphere-step-geometry.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  See perfbench/WORKLOADS.md.
"""
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import bench  # imports no numpy

    for var in bench.BLAS_VARS:
        os.environ[var] = "1"
    sys.exit(bench.main())
