"""Lazy package exports (PEP 562).

Each package ``__init__`` is a name table: the submodule that defines
every public name.  A name is imported on first access, so a run
compiles and loads only the modules it uses, not every sibling of the
one it imports.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``.

    ``table`` maps each submodule, relative to the package, to the names
    it exports, in ``__all__`` order.  A name resolves to the
    submodule's own object (to the submodule itself if they share the
    name) and is then bound in the package, so later lookups are plain
    attribute reads.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
