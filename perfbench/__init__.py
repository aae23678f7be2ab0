"""Benchmark of hovi's solve workloads; run it with perfbench/run.py."""
