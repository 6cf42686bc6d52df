"""Seeded inputs: Zipf key draws, checkable values, per-workload op streams.

Everything the program under test sees is generated here from ``--seed``
before any clock starts.  Equal seeds give equal streams; the timed
loops only replay them.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

BUFFER_BYTES = 1 << 20
ZIPF_S = 0.99

#: ``svc_direct_churn`` op codes.
OP_SET, OP_GET, OP_DELETE = 0, 1, 2


def rng_for(seed: int, *scope: object) -> random.Random:
    """An independent generator per (seed, scope): string seeds hash
    with SHA-512, so streams do not depend on PYTHONHASHSEED."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def value_buffer(seed: int) -> bytes:
    """One incompressible buffer all values are sliced from, so neither
    dedup nor compression can flatter a change."""
    return rng_for(seed, "buffer").randbytes(BUFFER_BYTES)


def payload(buffer: bytes, key: str, version: int, size: int) -> bytes:
    """The value stored under ``key`` at ``version``: a ``key:version|``
    header, then a slice of ``buffer`` whose offset depends on both, so a
    stale or foreign value never compares equal."""
    header = f"{key}:{version}|".encode("ascii")
    body = size - len(header)
    if body < 0:
        raise ValueError(f"size {size} too small for header {header!r}")
    offset = (hash_key(key) * 40503 + version * 2654435761) % (
        len(buffer) - body)
    return header + buffer[offset:offset + body]


def hash_key(key: str) -> int:
    """Stable (PYTHONHASHSEED-free) small hash of a key name."""
    acc = 0
    for char in key:
        acc = (acc * 131 + ord(char)) & 0xFFFFFFFF
    return acc


class WeightedDraw:
    """Draw indices ``0..n-1`` in proportion to ``weights`` by
    precomputed CDF + bisect."""

    def __init__(self, weights: Sequence[float]) -> None:
        self.weights = list(weights)
        total = sum(self.weights)
        acc = 0.0
        self.cdf: List[float] = []
        for weight in self.weights:
            acc += weight / total
            self.cdf.append(acc)
        self.cdf[-1] = 1.0

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cdf, rng.random())

    def sample_distinct(self, rng: random.Random, count: int) -> List[int]:
        """``count`` distinct indices, each included with probability
        increasing in its weight, in random order (weighted sampling
        without replacement: keep the largest ``log(u) / w``).  This is
        what a FIFO read-through cache holds in steady state, so a
        preload of it starts the timed phase warm."""
        keyed = sorted(
            ((math.log(1.0 - rng.random()) / weight, index)
             for index, weight in enumerate(self.weights)), reverse=True)
        chosen = [index for _, index in keyed[:count]]
        rng.shuffle(chosen)
        return chosen


def zipf(n: int, s: float = ZIPF_S) -> WeightedDraw:
    """Zipf(s) over key ranks ``0..n-1``."""
    return WeightedDraw([1.0 / (rank + 1) ** s for rank in range(n)])


def key_name(rank: int) -> str:
    return f"k{rank}"


@dataclass
class TcpInputs:
    """Inputs of one svc_tcp_* workload; one entry per connection."""

    tenants: List[str]
    value_bytes: int
    preload: List[List[int]]          # key ranks to set before timing
    ops: List[List[int]]              # hot/readthrough: key rank per get
    batches: List[List[Tuple[bool, List[int]]]]  # pipelined: (is_set, ranks)


def tcp_hot(seed: int, keys: int, gets_per_conn: int) -> TcpInputs:
    draw = zipf(keys)
    tenants = ["t0", "t1"]
    ops = []
    for tenant in tenants:
        rng = rng_for(seed, "svc_tcp_hot", tenant)
        ops.append([draw.draw(rng) for _ in range(gets_per_conn)])
    return TcpInputs(tenants, 1024, [list(range(keys)) for _ in tenants],
                     ops, [])


def tcp_pipelined(seed: int, keys: int, batches_per_conn: int,
                  depth: int = 16) -> TcpInputs:
    """Nine get batches to one overwrite-set batch, in seeded order."""
    draw = zipf(keys)
    tenants = ["t0", "t1"]
    batches = []
    for tenant in tenants:
        rng = rng_for(seed, "svc_tcp_pipelined", tenant)
        stream = []
        for _ in range(batches_per_conn):
            is_set = rng.random() < 0.1
            stream.append((is_set, [draw.draw(rng) for _ in range(depth)]))
        batches.append(stream)
    return TcpInputs(tenants, 1024, [list(range(keys)) for _ in tenants],
                     [], batches)


def tcp_readthrough(seed: int, keys: int, resident_per_tenant: int,
                    requests_per_conn: int) -> TcpInputs:
    draw = zipf(keys)
    tenants = ["t0", "t1"]
    preload, ops = [], []
    for tenant in tenants:
        rng = rng_for(seed, "svc_tcp_readthrough", tenant)
        preload.append(draw.sample_distinct(rng, resident_per_tenant))
        ops.append([draw.draw(rng) for _ in range(requests_per_conn)])
    return TcpInputs(tenants, 4096, preload, ops, [])


@dataclass
class ChurnInputs:
    """Inputs of svc_direct_churn: one interleaved stream over three
    tenants of unequal demand."""

    tenants: List[str]
    preload: List[Tuple[int, int, int]]   # (tenant index, key rank, size)
    ops: List[Tuple[int, int, int, int]]  # (op, tenant index, rank, size)


CHURN_KEYS = (24_000, 8_000, 4_000)
CHURN_SIZES = (512,) * 6 + (4096,) * 3 + (32768,)


def direct_churn(seed: int, preload_sets: int, ops: int,
                 key_counts: Sequence[int]) -> ChurnInputs:
    tenants = [f"t{i}" for i in range(len(key_counts))]
    zipfs = [zipf(count) for count in key_counts]
    # Demand follows keyspace size: the 24k-key tenant issues 6x the
    # ops of the 4k-key one, so equal weights meet unequal demand.
    tenant_draw = WeightedDraw(key_counts)
    rng = rng_for(seed, "svc_direct_churn")

    def pick() -> Tuple[int, int, int]:
        tenant = tenant_draw.draw(rng)
        return tenant, zipfs[tenant].draw(rng), rng.choice(CHURN_SIZES)

    preload = [pick() for _ in range(preload_sets)]
    stream = []
    for _ in range(ops):
        roll = rng.random()
        op = OP_SET if roll < 0.5 else OP_GET if roll < 0.9 else OP_DELETE
        tenant, rank, size = pick()
        stream.append((op, tenant, rank, size))
    return ChurnInputs(tenants, preload, stream)


def stream_digest(obj: object) -> str:
    """SHA-256 of an input object's repr (tests compare seeds with it)."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()
