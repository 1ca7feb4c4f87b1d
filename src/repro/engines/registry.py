"""The engine registry: resolve simulation backends by name.

The scenario runner, design scans, the CLI, the benchmarks, and user code
all resolve engines through this one mapping — adding a backend means
registering one :class:`~repro.engines.base.Engine` object, after which
capability introspection, ``auto`` selection (:func:`select_engine`),
``python -m repro engines``, and the conformance test suite pick it up
without further wiring.

The four built-in engines (:mod:`repro.engines.adapters`) are registered
lazily on first access, so importing :mod:`repro` stays cheap.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..errors import ValidationError

if TYPE_CHECKING:   # pragma: no cover - import cycle guard for annotations
    from .base import Engine

_REGISTRY: Dict[str, "Engine"] = {}
_BUILTINS_LOADED = False

#: Retired engine names that still resolve, mapped to the engine that
#: replaced them.  :func:`get_engine` and spec validation accept them;
#: :func:`engine_names` and :func:`list_engines` do not list them.
ENGINE_ALIASES = {"montecarlo-jit": "montecarlo", "ensemble-jit": "ensemble"}


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
        ``"ensemble"``, or any name registered via
        :func:`register_engine`), or an :data:`ENGINE_ALIASES` key.

    Returns
    -------
    Engine
        The registered engine.
    """
    _ensure_builtins()
    engine = _REGISTRY.get(name) \
        or _REGISTRY.get(ENGINE_ALIASES.get(name, name))
    if engine is None:
        raise ValidationError(
            f"unknown engine {name!r}; registered engines: "
            f"{engine_names()}")
    return engine


def engine_names() -> List[str]:
    """Sorted names of every registered engine."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def list_engines() -> List["Engine"]:
    """Every registered engine, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def select_engine(name: str = "auto", *, stochastic: bool = False,
                  replicas: int = 0, approximate: bool = False) -> "Engine":
    """Resolve an engine request: an explicit name, or ``auto`` by capability.

    ``auto`` considers the engines that meet the request: stochastic ones
    for a stochastic request, deterministic ones otherwise,
    approximate-sequential ones only if approximate physics is acceptable.
    It prefers ensemble support exactly when ``replicas >= 2``, then the
    lowest :attr:`~repro.engines.base.CostModel.per_point_s`, then the name,
    so an extra engine moves a selection only by declaring itself cheaper.

    Parameters
    ----------
    name:
        A registered engine name (or alias), returned as resolved by
        :func:`get_engine`, or ``"auto"``.
    stochastic:
        Whether the request needs trajectories and error bars.
    replicas:
        The request's replica budget.
    approximate:
        Whether approximate-sequential physics is acceptable.

    Returns
    -------
    Engine
        The selected engine.
    """
    if name != "auto":
        return get_engine(name)
    from .base import EXACTNESS_APPROXIMATE

    want_ensemble = stochastic and replicas >= 2
    ranked = []
    for engine in list_engines():
        caps = engine.capabilities()
        if (caps.stochastic == stochastic
                and (approximate or caps.exactness != EXACTNESS_APPROXIMATE)):
            ranked.append(((caps.supports_ensemble != want_ensemble,
                            caps.cost.per_point_s, engine.name), engine))
    if not ranked:
        raise ValidationError(
            f"no registered engine meets the request (stochastic="
            f"{stochastic}, replicas={replicas}, approximate={approximate})")
    return min(ranked, key=lambda pair: pair[0])[1]


__all__ = ["ENGINE_ALIASES", "engine_names", "get_engine", "list_engines",
           "register_engine", "select_engine", "unregister_engine"]
