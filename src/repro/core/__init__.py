"""DoubleDecker's hypervisor cache: the paper's core contribution.

Public surface:

* :class:`DoubleDeckerCache` — the nesting-aware two-level weighted cache.
* :class:`GlobalCache` / :class:`StaticPartitionCache` /
  :class:`NullCache` — the baselines it is evaluated against.
* :class:`CachePolicy` / :class:`StoreKind` / :class:`DDConfig` — policy
  configuration (the paper's ``<T, W>`` tuples and host-admin settings).
* :func:`select_victim` — Algorithm 1 over ``(ref, entitlement, used,
  weightage)`` rows, usable standalone.
* :func:`check_cache` / :func:`assert_consistent` — shadow-accounting
  invariant auditor (see :mod:`repro.core.audit`).
* Admission controllers (:mod:`repro.endurance`) are re-exported here for
  convenience: :class:`AdmitAll`, :class:`SecondAccessAdmit`,
  :class:`WriteRateThrottle`, :func:`make_admission`.
"""

from .._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first use:
#: the cache service needs ``config``, ``engine`` and ``pools`` and
#: should not pay for the simulated cache manager, baselines and auditor.
_EXPORTS = {
    "ADMISSION_POLICIES": "..endurance",
    "AdmissionController": "..endurance",
    "AdmitAll": "..endurance",
    "SecondAccessAdmit": "..endurance",
    "WriteRateThrottle": "..endurance",
    "make_admission": "..endurance",
    "BlockKey": ".pools",
    "CachePolicy": ".config",
    "InvariantViolation": ".audit",
    "assert_consistent": ".audit",
    "assert_host_clean": ".audit",
    "check_cache": ".audit",
    "check_host": ".audit",
    "global_audit_interval": ".audit",
    "set_audit_interval": ".audit",
    "start_periodic_audit": ".audit",
    "CompressionModel": ".optimizations",
    "DedupIndex": ".optimizations",
    "content_fingerprint": ".optimizations",
    "DDConfig": ".config",
    "DoubleDeckerCache": ".cache_manager",
    "Entity": ".victim",
    "EvictionRound": ".engine",
    "PolicyEngine": ".engine",
    "GlobalCache": ".baselines",
    "HypervisorCacheBase": ".interface",
    "NullCache": ".interface",
    "Pool": ".pools",
    "PoolStats": ".stats",
    "StaticPartitionCache": ".baselines",
    "StoreKind": ".config",
    "VMEntry": ".pools",
    "exceed_value": ".victim",
    "select_victim": ".victim",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
