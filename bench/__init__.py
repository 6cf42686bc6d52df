"""Seeded, layer-attributed benchmark for the live cache service and the
simulator.  See ``bench/README.md``; run with ``python3 -m bench``."""
