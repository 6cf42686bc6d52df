"""Suppression fixture: pragma without justification -> DD000.

The DD001 finding itself is silenced, but the file still fails because
the suppression carries no reason.
"""

import time


def profile_wall_clock() -> float:
    return time.time()  # dd-lint: disable=DD001
