"""Host-time benchmark of the simulator; run it with ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-end-to-end map.
"""
