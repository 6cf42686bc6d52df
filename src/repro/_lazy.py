"""Lazy package re-exports (PEP 562).

``python -m repro.service`` executes ``repro/__init__.py`` and
``repro/core/__init__.py`` on its way to the server; were their
re-exports eager, a cache server would import the whole simulator.  A
package hands :func:`lazy_exports` its ``public name -> defining
module`` table and gets back the module-level ``__getattr__`` and
``__dir__`` that import a module when one of its names is first asked
for, so ``from repro import SimContext`` and ``repro.core.Pool`` work
as if the import had been made up front.

The other direction holds too: ``repro.obs`` and ``repro.experiments``
re-export the same way, so a simulation imports neither the live-service
telemetry (asyncio, ssl) nor the experiments it does not run.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple, Union

__all__ = ["lazy_exports"]


def lazy_exports(namespace: Dict[str, Any],
                 exports: Dict[str, Union[str, Callable[[], Any]]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.  ``exports`` maps each public name to the module
    defining it, relative to the package (``".audit"``, ``"..endurance"``);
    a name that *is* that module (``"analysis": ".analysis"``) resolves
    to the module itself, and a name mapped to a function resolves to
    what that function builds."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        home = exports.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if callable(home):
            value = home()
        else:
            value = importlib.import_module(home, package)
            if home.lstrip(".") != name:
                value = getattr(value, name)
        namespace[name] = value     # later lookups never come back here
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
