"""SSD endurance modeling and write-aware cache admission.

The subsystem has three parts, all deterministic and dependency-free so
the rest of the tree can import them without cycles:

* :mod:`repro.endurance.wear` — per-device P/E-cycle accounting
  (:class:`WearModel`), attached to every ``SSD`` block device and
  charged at write completion alongside ``DeviceStats``.
* :mod:`repro.endurance.admission` — pluggable admission controllers
  (:class:`AdmitAll`, :class:`SecondAccessAdmit`,
  :class:`WriteRateThrottle`) consulted by ``DoubleDeckerCache`` before
  a block enters an SSD-backed pool.
* :mod:`repro.endurance.report` — shared report math (projected
  lifetime, hit-rate-per-GB-written) used by metrics and the
  ``endurance`` experiment.
"""

from .admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmitAll,
    SecondAccessAdmit,
    WriteRateThrottle,
    make_admission,
)
from .report import endurance_summary, format_lifetime, hits_per_gb_written
from .wear import WearModel

__all__ = [
    "WearModel",
    "AdmissionController",
    "AdmitAll",
    "SecondAccessAdmit",
    "WriteRateThrottle",
    "ADMISSION_POLICIES",
    "make_admission",
    "endurance_summary",
    "format_lifetime",
    "hits_per_gb_written",
]
