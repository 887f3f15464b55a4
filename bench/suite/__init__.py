"""The AutoGlobe benchmark: six seeded workloads, measured from outside.

``python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the command `BENCHMARK.json` names; ``PYTHONPATH=src python -m bench.suite``
runs every workload.  See ``README.md`` next to this file.
"""
