"""The spec-document format: one loader, one canonical JSON, one identity.

A :class:`~repro.scenarios.spec.ScenarioSpec` or
:class:`~repro.design.spec.DesignSpec` is a :class:`SpecDocument`: it loads
from JSON or TOML text or a file path, and the SHA-256 of its
:func:`canonical_json` (:func:`content_hash`) is the cache identity of its
results.  Cache artifacts and result payloads are written in the same
canonical form.  The TOML parser is imported only when TOML is read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import (Any, ClassVar, Dict, Iterator, Mapping, Tuple, Type,
                    TypeVar, Union)

from ..errors import ValidationError

_Spec = TypeVar("_Spec", bound="SpecDocument")


def canonical_json(payload: Any) -> str:
    """JSON text with sorted keys and compact separators (NaN as ``NaN``).

    Two values with the same content serialise to the same bytes, whatever
    their dict insertion order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Union[str, bytes, Mapping]) -> str:
    """SHA-256 content hash of a string, bytes, or JSON-able mapping.

    Mappings are hashed in their :func:`canonical_json` form, so two dicts
    with the same content but different insertion order hash identically.

    Parameters
    ----------
    payload:
        The content to fingerprint.

    Returns
    -------
    str
        Hex digest of the canonical representation.
    """
    if isinstance(payload, Mapping):
        payload = canonical_json(payload)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def known_engine_names() -> Tuple[str, ...]:
    """``("auto",)`` plus every engine currently in the registry.

    The single source of truth for spec-level engine validation: a backend
    registered via :func:`repro.engines.register_engine` becomes a legal
    spec engine immediately, and a retired name in
    :data:`repro.engines.registry.ENGINE_ALIASES` stays legal.
    """
    from ..engines.registry import ENGINE_ALIASES, engine_names

    return ("auto",) + tuple(engine_names()) + tuple(ENGINE_ALIASES)


@contextlib.contextmanager
def coercion_errors(label: str) -> Iterator[None]:
    """Turn bare ``float()``/``int()`` failures into :class:`ValidationError`.

    :class:`ValidationError` itself passes through untouched (it is not a
    :class:`ValueError`), so field-validation messages keep their detail.
    """
    try:
        yield
    except (TypeError, ValueError) as error:
        raise ValidationError(f"invalid {label} value: {error}") from None


def reject_unknown_keys(label: str, payload: Mapping, document: Any) -> None:
    """Raise :class:`ValidationError` on keys that name no ``document`` field.

    A typo in a spec document must not fall back to a default and then be
    content-hashed as if the author's intent had been honoured.
    """
    known = [entry.name for entry in dataclasses.fields(document)]
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {label} key(s) {unknown}; known keys: {sorted(known)}")


class SpecDocument:
    """Base of the declarative spec documents.

    Subclasses are frozen dataclasses with ``name`` and ``engine`` fields.
    They set :attr:`kind`, implement :meth:`to_dict` and :meth:`from_dict`,
    and call ``super().__post_init__()`` before their own validation.
    """

    #: Document kind (``"scenario"``, ``"design"``): the TOML table a
    #: document may sit under, and the label of its error messages.
    kind: ClassVar[str] = "spec"

    name: str
    engine: str

    def __post_init__(self) -> None:
        """Check the name and the engine every document carries."""
        if not self.name:
            raise ValidationError(f"{self.kind} spec needs a name")
        known = known_engine_names()
        if self.engine not in known:
            raise ValidationError(
                f"unknown engine {self.engine!r}; choose from {known}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls: Type[_Spec], payload: Mapping) -> _Spec:
        """Build a document from a plain dict (the JSON/TOML root)."""
        raise NotImplementedError

    @classmethod
    def document_name(cls, payload: Mapping) -> str:
        """The name of a document root, after rejecting unknown keys."""
        reject_unknown_keys(f"{cls.kind} spec", payload, cls)
        try:
            return str(payload["name"])
        except KeyError:
            raise ValidationError(
                f"{cls.kind} document needs a 'name'") from None

    @classmethod
    def from_json(cls: Type[_Spec], source: Union[str, Path]) -> _Spec:
        """Parse a document from JSON text or a ``.json`` file path."""
        text = _read_maybe_path(source, cls.kind)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"invalid {cls.kind} JSON: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_toml(cls: Type[_Spec], source: Union[str, Path]) -> _Spec:
        """Parse a document from TOML text or a ``.toml`` file path.

        The document may live at the root or under a table named after
        :attr:`kind` (``[scenario]``, ``[design]``).  Uses the
        standard-library ``tomllib`` (Python 3.11+) with a ``tomli``
        fallback on 3.10; without either, use JSON documents.
        """
        tomllib = _toml_parser()
        text = _read_maybe_path(source, cls.kind)
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ValidationError(
                f"invalid {cls.kind} TOML: {error}") from None
        if isinstance(payload.get(cls.kind), dict):
            payload = payload[cls.kind]
        return cls.from_dict(payload)

    @classmethod
    def load(cls: Type[_Spec], path: Union[str, Path]) -> _Spec:
        """Load a document file, picking the parser from the extension."""
        path = Path(path)
        if path.suffix.lower() == ".toml":
            return cls.from_toml(path)
        return cls.from_json(path)

    def canonical_json(self) -> str:
        """Stable JSON form of :meth:`to_dict` (:func:`canonical_json`)."""
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        """SHA-256 hash of :meth:`canonical_json` — the cache identity."""
        return content_hash(self.canonical_json())


def _toml_parser() -> Any:
    """The available TOML parser module (``tomllib``, or ``tomli`` on 3.10)."""
    try:
        import tomllib
        return tomllib
    except ModuleNotFoundError:
        try:
            import tomli
            return tomli
        except ModuleNotFoundError:
            raise ValidationError(
                "TOML spec documents need Python >= 3.11 (tomllib) or the "
                "'tomli' package; use a JSON spec instead") from None


def _read_maybe_path(source: Union[str, Path], kind: str) -> str:
    """The file's text when ``source`` is an existing path, else ``source``."""
    if isinstance(source, Path):
        try:
            return source.read_text()
        except OSError as error:
            raise ValidationError(
                f"cannot read {kind} spec file {source}: {error}") from None
    candidate = Path(source)
    try:
        if candidate.is_file():
            return candidate.read_text()
    except OSError:
        pass
    return str(source)


__all__ = ["SpecDocument", "canonical_json", "coercion_errors",
           "content_hash", "known_engine_names", "reject_unknown_keys"]
