"""The scenario runner: cache-aware, engine-dispatching execution.

:class:`ScenarioRunner` is the orchestration layer between the declarative
registry and the six built-in engines.  Per run it

1. resolves the scenario and applies an optional engine override,
2. consults the content-hash result cache (spec hash + code version); a hit
   is served directly — **no engine is dispatched** — and logged as such,
3. on a miss builds an :class:`~repro.scenarios.engines.EngineContext`
   (which resolves ``engine="auto"`` through the selection heuristic) and
   calls the scenario's compute function,
4. stores the deterministic payload back into the cache and stamps the
   ``meta`` block (engine, elapsed seconds, spec hash, cache status).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Union

from ..errors import ValidationError
from ..io.results import ResultCache
from .engines import EngineContext
from .registry import Scenario, get_scenario
from .result import ScenarioResult
from .spec import ScenarioSpec

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The scenario cache directory (``$REPRO_CACHE_DIR`` wins)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro/scenarios").expanduser()


class ScenarioRunner:
    """Runs scenarios through the cache and the engine-dispatch layer.

    Parameters
    ----------
    use_cache:
        Consult/fill the result cache (default).  ``False`` always
        recomputes and never writes.
    cache_dir:
        Cache directory (default :func:`default_cache_dir`).
    cache:
        Pre-built :class:`~repro.io.results.ResultCache` (overrides
        ``cache_dir``; useful for tests).
    log:
        Callback receiving one-line progress strings (``None`` = silent).
    """

    def __init__(self, use_cache: bool = True,
                 cache_dir: Union[str, Path, None] = None,
                 cache: Optional[ResultCache] = None,
                 log=None) -> None:
        self.use_cache = bool(use_cache)
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ResultCache(cache_dir if cache_dir is not None
                                     else default_cache_dir())
        self._log = log

    def log(self, message: str) -> None:
        """Emit one progress line."""
        if self._log is not None:
            self._log(message)

    def run(self, scenario: Union[str, Scenario],
            engine: Optional[str] = None) -> ScenarioResult:
        """Run one scenario (by name or object), serving cache hits.

        Parameters
        ----------
        scenario:
            Registered scenario name, or a :class:`Scenario` object (which
            need not be registered — ad-hoc specs work too).
        engine:
            Optional engine override; folded into the spec, so it changes
            the cache identity.

        Returns
        -------
        ScenarioResult
            With ``meta["cache"]`` set to ``"hit"``, ``"miss"``, or
            ``"off"``.
        """
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        spec = scenario.spec.with_engine(engine)
        allowed = scenario.allowed_engines()
        if spec.engine not in allowed:
            raise ValidationError(
                f"scenario {spec.name!r} does not dispatch on engine "
                f"{spec.engine!r}; supported engine(s): {sorted(allowed)}")
        spec_hash = spec.content_hash()
        key = self.cache.key_for(spec_hash)

        if self.use_cache:
            artifact = self.cache.load(key)
            if artifact is not None and "payload" in artifact:
                result = ScenarioResult.from_payload(
                    artifact["payload"],
                    meta={"cache": "hit", "spec_hash": spec_hash,
                          "cache_key": key,
                          "artifact": str(self.cache.path_for(key)),
                          "elapsed_seconds": 0.0})
                self.log(f"cache hit for {spec.name!r} "
                         f"[{key[:12]}]: served from "
                         f"{self.cache.path_for(key)} (no engine dispatch)")
                return result

        context = EngineContext(spec, log=self._log)
        self.log(f"running {spec.name!r} on engine {context.engine!r} "
                 f"[{key[:12]}]")
        started = time.perf_counter()
        result = scenario.compute(spec, context)
        elapsed = time.perf_counter() - started
        if not isinstance(result, ScenarioResult):
            raise ValidationError(
                f"scenario {spec.name!r} returned "
                f"{type(result).__name__}, expected ScenarioResult")
        result.meta.update({
            "cache": "miss" if self.use_cache else "off",
            "spec_hash": spec_hash,
            "cache_key": key,
            "elapsed_seconds": elapsed,
        })
        if self.use_cache:
            path = self.cache.store(key, {
                "format": 1,
                "spec": spec.to_dict(),
                "spec_hash": spec_hash,
                "payload": result.payload_dict(),
            })
            if path is None:
                # Unwritable cache: the run still succeeded, it just will
                # not be served from cache next time.
                self.log(f"could not store {spec.name!r} result "
                         "(cache unwritable; run completed uncached)")
            else:
                result.meta["artifact"] = str(path)
                self.log(f"stored {spec.name!r} result at {path}")
        return result

    def run_spec(self, spec: ScenarioSpec,
                 engine: Optional[str] = None) -> ScenarioResult:
        """Run an ad-hoc spec with the registered compute of ``spec.name``.

        Loads the registered scenario of the same name for its compute
        function but executes it against ``spec`` — this is how a JSON/TOML
        spec file with tweaked knobs runs through the standard machinery.
        """
        registered = get_scenario(spec.name)
        return self.run(Scenario(spec=spec, compute=registered.compute,
                                 title=registered.title,
                                 claim=registered.claim,
                                 expected=registered.expected,
                                 supported_engines=registered.allowed_engines()),
                        engine=engine)


__all__ = ["CACHE_DIR_ENV", "ScenarioRunner", "default_cache_dir"]
