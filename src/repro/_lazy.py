"""PEP 562 re-exports: a package's names, imported on first use.

``repro``, ``repro.core`` and ``repro.transport`` each map a public name to
the module that defines it and let :func:`lazy_exports` build their module
``__getattr__`` / ``__dir__``.  This module imports nothing from ``repro``,
so a package can use it while it is itself being imported.
"""

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``: a name in ``exports`` is imported from its module on first
    access and cached in ``namespace``."""

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted([*namespace, *exports])

    return __getattr__, __dir__
