"""Benchmark of the treeroute solvers; run it with ``python3 perfbench/run.py``."""
