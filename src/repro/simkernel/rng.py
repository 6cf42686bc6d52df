"""Deterministic named random-number streams.

Every source of randomness in the simulator draws from a named child stream
of a single master seed, so that (a) whole experiments are reproducible
bit-for-bit and (b) changing how one component consumes randomness does not
perturb any other component.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "zipf_ranks"]


class RandomStreams:
    """Factory of independent, deterministic :class:`random.Random` streams.

    Child streams are derived by hashing ``(master_seed, name)`` so the
    mapping is stable across runs and across stream-creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use)."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
        child = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = child
        return child

    def drop(self, name: str) -> None:
        """Forget the cached stream for ``name``.

        Used when the named consumer is destroyed (e.g. a VM): the cache
        entry would otherwise live for the whole run.  Because streams are
        derived from ``(seed, name)`` alone, a later consumer reusing the
        name gets an identically-seeded fresh stream — the stable mapping
        the class guarantees — rather than a continuation of the dead
        consumer's sequence.
        """
        self._streams.pop(name, None)


def zipf_ranks(rng: random.Random, n: int, theta: float = 0.99):
    """A sampler of Zipfian ranks in ``[0, n)`` (YCSB's default skew).

    Returns a zero-argument callable.  Uses the classical Gray et al.
    rejection-free inverse-CDF approximation used by YCSB itself, so the
    hot-spot structure matches YCSB workloads.
    """
    if n < 1:
        raise ValueError(f"need at least one item, got {n}")
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must be in (0, 1), got {theta}")

    zetan = _zeta(n, theta)
    if n <= 2:
        # The eta interpolation degenerates for n <= 2; fall back to the
        # exact two-point inverse CDF.
        head = 1.0 / zetan

        def sample_small() -> int:
            return 0 if (n == 1 or rng.random() < head) else 1

        return sample_small
    zeta2 = _zeta(2, theta)
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample() -> int:
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** theta:
            return 1
        return int(n * (eta * u - eta + 1.0) ** alpha)

    return sample


def _zeta(n: int, theta: float) -> float:
    """Partial zeta sum ``sum(1/i**theta for i in 1..n)``.

    Exact for small ``n``; for large ``n`` an Euler–Maclaurin tail keeps
    construction O(1)-ish without visible error in sampling behaviour.
    """
    cutoff = 10000
    if n <= cutoff:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))
    head = sum(1.0 / (i ** theta) for i in range(1, cutoff + 1))
    # Integral approximation of the tail plus trapezoidal correction.
    tail = ((n ** (1.0 - theta)) - (cutoff ** (1.0 - theta))) / (1.0 - theta)
    correction = 0.5 * (1.0 / (n ** theta) - 1.0 / (cutoff ** theta))
    return head + tail + correction
