"""Benchmark of the spatial tiler: three workloads over the package's
public entry points, end-to-end metrics from untraced runs and per-layer
self times from a separate traced run.  Entry point: ``perfbench/run.py``.
"""
