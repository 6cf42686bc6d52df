"""DoubleDecker's hypervisor cache: the paper's core contribution.

Public surface:

* :class:`DoubleDeckerCache` — the nesting-aware two-level weighted cache.
* :class:`GlobalCache` / :class:`StaticPartitionCache` /
  :class:`NullCache` — the baselines it is evaluated against.
* :class:`CachePolicy` / :class:`StoreKind` / :class:`DDConfig` — policy
  configuration (the paper's ``<T, W>`` tuples and host-admin settings).
* :func:`get_victim` — Algorithm 1, usable standalone.
* :func:`check_cache` / :func:`assert_consistent` — shadow-accounting
  invariant auditor (see :mod:`repro.core.audit`).
* Admission controllers (:mod:`repro.endurance`) are re-exported here for
  convenience: :class:`AdmitAll`, :class:`SecondAccessAdmit`,
  :class:`WriteRateThrottle`, :func:`set_default_admission`.
"""

from ..endurance import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmitAll,
    SecondAccessAdmit,
    WriteRateThrottle,
    default_admission,
    make_admission,
    set_default_admission,
)
from .audit import (
    InvariantViolation,
    assert_consistent,
    assert_host_clean,
    check_cache,
    check_host,
    global_audit_interval,
    set_audit_interval,
    start_periodic_audit,
)
from .baselines import GlobalCache, StaticPartitionCache
from .cache_manager import DoubleDeckerCache
from .config import CachePolicy, DDConfig, StoreKind
from .engine import EvictionRound, PolicyEngine
from .interface import HypervisorCacheBase, NullCache
from .optimizations import CompressionModel, DedupIndex, content_fingerprint
from .pools import BlockKey, Pool, VMEntry
from .radix import BlockTable
from .stats import PoolStats, StoreStats
from .victim import EvictionEntity, exceed_value, fallback_victim, get_victim

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmitAll",
    "SecondAccessAdmit",
    "WriteRateThrottle",
    "default_admission",
    "make_admission",
    "set_default_admission",
    "BlockKey",
    "BlockTable",
    "CachePolicy",
    "InvariantViolation",
    "assert_consistent",
    "assert_host_clean",
    "check_cache",
    "check_host",
    "global_audit_interval",
    "set_audit_interval",
    "start_periodic_audit",
    "CompressionModel",
    "DedupIndex",
    "content_fingerprint",
    "DDConfig",
    "DoubleDeckerCache",
    "EvictionEntity",
    "EvictionRound",
    "PolicyEngine",
    "GlobalCache",
    "HypervisorCacheBase",
    "NullCache",
    "Pool",
    "PoolStats",
    "StaticPartitionCache",
    "StoreKind",
    "StoreStats",
    "VMEntry",
    "exceed_value",
    "fallback_victim",
    "get_victim",
]
