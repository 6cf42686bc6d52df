"""Shared settings for the paper-shape checks.

Each file regenerates one table/figure of the paper at a reduced
``BENCH_SCALE`` (datasets, cache sizes, and durations shrink together,
which preserves the ratios that define every reported shape), runs it
once and asserts its shape.  Results are printed so the log doubles as
the reproduction record.
"""

#: Scale and seed of every experiment check.
BENCH_SCALE = 0.2
BENCH_SEED = 42
