"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package declares its public names as ordinary ``from leaf import name``
statements under ``if TYPE_CHECKING:`` (plus the usual ``__all__``) — visible
to type checkers and static import walks, but not executed.
:func:`lazy_exports` reads those statements from the package's source and
imports each name from its leaf module on first attribute access, so
``import repro.core.config`` does not pay for ``repro.core.maco`` and its
NumPy-backed functional emulators.  Usage, after the ``TYPE_CHECKING`` block::

    __getattr__, __dir__ = lazy_exports(__name__, __file__)
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Tuple


def _declared_exports(init_file: str) -> Dict[str, str]:
    """Map each name imported under the file's ``if TYPE_CHECKING:`` to its module."""
    import ast

    with open(init_file, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=init_file)
    owners: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    owners.update((alias.name, statement.module) for alias in statement.names)
    return owners


def lazy_exports(
    package: str, init_file: str
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``, whose source is ``init_file``.

    The source is read on the first lookup the package's own namespace
    misses, not at import.
    """
    owners = functools.cache(lambda: _declared_exports(init_file))

    def __getattr__(name: str) -> object:
        module = owners().get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners()))

    return __getattr__, __dir__
