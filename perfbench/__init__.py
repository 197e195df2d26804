"""Benchmark of the elastoray package: workloads, tracing and references."""
