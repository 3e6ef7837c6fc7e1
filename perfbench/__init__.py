"""The repository benchmark: closed-loop workloads through ``repro.api.connect()``.

Run ``python3 perfbench/run.py --help``; see ``README.md`` in this directory.
"""
