"""Argument types shared by the package's command-line entry points."""

from __future__ import annotations

import argparse
import math


def bounded(kind, minimum: float, strict: bool = False):
    """An argparse ``type=``: a finite ``kind`` value ``>= minimum``
    (``> minimum`` when ``strict``); anything else exits 2 at parse time,
    before the command builds anything."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        too_small = value <= minimum if strict else value < minimum
        if too_small or not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {minimum}, "
                f"got {text}")
        return value
    return parse
