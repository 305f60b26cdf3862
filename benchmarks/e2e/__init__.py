"""The repository's end-to-end benchmark: four paper-grid workloads run
through ``repro.exec.execute_jobs``, with a traced per-layer breakdown.

Run ``python -m benchmarks.e2e run --seed 0`` from the repository root;
see README.md in this directory.
"""
