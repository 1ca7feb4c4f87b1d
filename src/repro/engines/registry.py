"""The engine registry: resolve simulation backends by name.

The scenario heuristic, the CLI, the benchmarks, and user code all resolve
engines through this one mapping — adding a backend means registering one
:class:`~repro.engines.base.Engine` object, after which capability
introspection, ``auto`` selection, ``python -m repro engines``, and the
conformance test suite pick it up without further wiring.

The six built-in adapters (:mod:`repro.engines.adapters`) are registered
lazily on first access, so importing :mod:`repro` stays cheap.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..errors import ValidationError

if TYPE_CHECKING:   # pragma: no cover - import cycle guard for annotations
    from .base import Engine

_REGISTRY: Dict[str, "Engine"] = {}
_BUILTINS_LOADED = False


def register_engine(engine: "Engine") -> "Engine":
    """Add an engine to the registry (idempotent re-registration allowed).

    Parameters
    ----------
    engine:
        The engine *instance*; its ``name`` attribute is the registry key.
        Passing the class itself is rejected here rather than crashing the
        first consumer that calls ``capabilities()`` on it.

    Returns
    -------
    Engine
        The registered engine, unchanged, so registration can be chained.
    """
    if isinstance(engine, type):
        raise ValidationError(
            f"register an Engine instance, not the class "
            f"{engine.__name__!r} (use register_engine({engine.__name__}()))")
    if not engine.name:
        raise ValidationError(
            f"{type(engine).__name__} has no registry name; set the class "
            "attribute 'name'")
    _REGISTRY[engine.name] = engine
    return engine


def unregister_engine(name: str) -> bool:
    """Remove an engine from the registry (tests, benchmark cleanup).

    Parameters
    ----------
    name:
        Registry name to remove.

    Returns
    -------
    bool
        Whether an engine of that name was registered.
    """
    return _REGISTRY.pop(name, None) is not None


def _ensure_builtins() -> None:
    """Import the built-in adapters on first registry access.

    The loaded flag is set only after a *successful* import, so a failing
    adapter import raises its real error on every access instead of leaving
    later callers with a silently empty registry.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from . import adapters  # noqa: F401  (registers on import)
        _BUILTINS_LOADED = True


def get_engine(name: str) -> "Engine":
    """Look up a registered engine by name.

    Parameters
    ----------
    name:
        Registry name (``"analytic"``, ``"master"``, ``"montecarlo"``,
        ``"ensemble"``, ``"montecarlo-jit"``, ``"ensemble-jit"``, or any
        name registered via :func:`register_engine`).

    Returns
    -------
    Engine
        The registered engine.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown engine {name!r}; registered engines: "
            f"{engine_names()}") from None


def engine_names() -> List[str]:
    """Sorted names of every registered engine."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def list_engines() -> List["Engine"]:
    """Every registered engine, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


__all__ = ["engine_names", "get_engine", "list_engines", "register_engine",
           "unregister_engine"]
