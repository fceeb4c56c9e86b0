"""The repository benchmark: fit and serve paths, end to end and per layer.

See ``perfbench/README.md`` for the workloads, the metrics and how to
run them.
"""
