"""The memoizing ("cached") evaluation engine.

:class:`CachedSemantics` wraps any oracle- or brute-engine
:class:`~repro.semantics.base.Semantics` instance and memoizes its five
decision entry points in the process-wide :data:`~repro.engine.cache.
ENGINE_CACHE`, keyed on::

    (DisjunctiveDatabase, semantics-name, inner-engine, *params, *query)

where ``params`` is the semantics' :meth:`~repro.semantics.base.Semantics.
cache_params` tuple (the ``(P;Z)`` partition for CCWA, ICWA and ECWA,
which also serves EGCWA and the ``circ`` alias; empty for the others).  Databases hash structurally, so two structurally
equal databases — however constructed — share entries, while distinct
partitions or engines never collide.

Obtain instances through ``get_semantics(name, engine="cached")`` or
``DatabaseSession(db, engine="cached")`` rather than constructing
directly; the registry routes the ``"cached"`` engine name here.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple, Union

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..semantics.base import Semantics
from .cache import ENGINE_CACHE, EngineCache


class CachedSemantics(Semantics):
    """Memoizing façade over a concrete semantics instance.

    Args:
        inner: the wrapped semantics (usually oracle-engined).
        cache: the cache to use (default: the process-wide one).

    Unknown attributes (``p``, ``z``, ``partition``, ``free_atoms``, ...)
    delegate to ``inner``, so the wrapper is a drop-in replacement.
    """

    def __init__(
        self, inner: Semantics, cache: Optional[EngineCache] = None
    ):
        if isinstance(inner, CachedSemantics):
            inner = inner.inner
        # Deliberately skip Semantics.__init__: "cached" is not a concrete
        # decision engine, it is this façade.
        self.inner = inner
        self.engine = "cached"
        self.name = inner.name
        self.aliases = inner.aliases
        self.description = inner.description
        self.cache = cache if cache is not None else ENGINE_CACHE

    # ------------------------------------------------------------------
    def _key(self, db: DisjunctiveDatabase, *query: Hashable) -> Tuple:
        return (
            (db, self.inner.name, self.inner.engine)
            + self.inner.cache_params()
            + query
        )

    # ------------------------------------------------------------------
    def validate(self, db: DisjunctiveDatabase) -> None:
        self.inner.validate(db)

    def _validated(self, db: DisjunctiveDatabase, compute):
        # Validation runs inside the build closure, i.e. only on a
        # cache miss: an inapplicable database raises before anything
        # is memoized (so every later call re-raises identically), and
        # a hit needs no re-check — the stored answer proves
        # ``validate(db)`` succeeded for this parameterization, and
        # databases are immutable.
        self.inner.validate(db)
        return compute()

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        return self.cache.get_or_compute(
            "model_set",
            self._key(db),
            lambda: self._validated(db, lambda: self.inner.model_set(db)),
        )

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        return self.cache.get_or_compute(
            "infers",
            self._key(db, formula),
            lambda: self._validated(
                db, lambda: self.inner.infers(db, formula)
            ),
        )

    def infers_literal(
        self, db: DisjunctiveDatabase, literal: Union[Literal, str]
    ) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        return self.cache.get_or_compute(
            "infers_literal",
            self._key(db, literal),
            lambda: self._validated(
                db, lambda: self.inner.infers_literal(db, literal)
            ),
        )

    def infers_brave(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        return self.cache.get_or_compute(
            "infers_brave",
            self._key(db, formula),
            lambda: self._validated(
                db, lambda: self.inner.infers_brave(db, formula)
            ),
        )

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        return self.cache.get_or_compute(
            "has_model",
            self._key(db),
            lambda: self._validated(db, lambda: self.inner.has_model(db)),
        )

    # ------------------------------------------------------------------
    def __getattr__(self, attr: str):
        # Only reached for attributes not found normally; delegate to the
        # wrapped semantics (partition params, closure helpers, ...).
        return getattr(self.inner, attr)

    def __repr__(self) -> str:
        return f"CachedSemantics({self.inner!r})"
