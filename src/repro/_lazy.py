"""Lazy package re-exports (PEP 562).

A package whose ``__init__`` re-exports its submodules' names imports
all of those submodules, and everything they import, as soon as any
one of them is imported: reaching :mod:`repro.core.labels` would load
the dataset builder, LIME and networkx.  :func:`lazy_exports` builds the
package's module ``__getattr__`` and ``__dir__`` instead, so
``from repro.core import WellnessClassifier`` imports
:mod:`repro.core.pipeline` on first use, and importing one module loads
only that module's own dependencies.

A lazy re-export must not share its name with a submodule of its
package: importing the submodule binds that name on the package to the
module, and ``__getattr__`` is then never consulted.  Packages that
re-export such names (:mod:`repro.text`, :mod:`repro.models`) import
eagerly.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving ``exports``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name is imported on its first access and then
    bound on the package, so later lookups never reach ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
