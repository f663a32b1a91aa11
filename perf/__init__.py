"""The repo's one benchmark: five workloads, two clocks, per-layer attribution.

``python3 perf/run.py`` (or ``PYTHONPATH=src python -m perf.run``) runs
it; ``perf/README.md`` explains the metrics and how to cite them.
"""
