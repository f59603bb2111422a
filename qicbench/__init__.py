"""Benchmark of the qic package: three workloads, output oracles and a traced
run. Entry point: ``python3 qicbench/run.py --workload grid|compile|wide``."""
