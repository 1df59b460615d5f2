"""Lazy package re-exports (PEP 562).

A package's ``__init__`` names its public objects and the submodule that
defines each; importing the package loads none of them.  The first
``repro.core.LockFreeCOS`` — or ``from repro.core import LockFreeCOS`` —
imports that one submodule and caches the object on the package, so a
replica process loads only the modules it runs (docs/deployment.md,
*Process model*).
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def exports(package: str, where: Dict[str, Sequence[str]],
            ) -> Tuple[Callable[[str], Any], List[str]]:
    """The module ``__getattr__`` of ``package`` and the names it resolves;
    ``where`` maps a module (relative to ``package`` when it starts with a
    dot) to the names it defines."""
    owner = {name: module for module, names in where.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owner)
