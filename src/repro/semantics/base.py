"""Semantics interface and registry.

Every semantics studied by the paper is exposed as a class implementing
:class:`Semantics`: :meth:`Semantics.model_set`, the set of selected
models (may be exponential; intended for inspection and tests), and one
search, :meth:`Semantics.selected_model`, a selected model satisfying a
condition or ``None``.  The paper's decision problems derive from them:

* :meth:`Semantics.counter_model` — a selected model falsifying a
  formula (condition ¬F), the certificate that cautious inference fails,
* :meth:`Semantics.infers` — formula inference (no counter-model),
* :meth:`Semantics.infers_brave` — brave inference (condition F),
* :meth:`Semantics.infers_literal` — literal inference,
* :meth:`Semantics.has_model` — model existence under the semantics.

A class overrides a derived query only where the paper gives a cheaper
procedure (the tractable literal cells, say).

Each class offers an ``engine`` switch:

* ``"oracle"`` (default) — the SAT/Σ₂ᵖ-oracle-backed decision procedures
  realizing the paper's upper bounds,
* ``"brute"`` — explicit enumeration over ``2^|V|`` (or ``3^|V|``)
  interpretations, the ground truth used in cross-validation tests,
* ``"cached"`` / ``"planned"`` / ``"resilient"`` — wrappers over the
  oracle instance (memo cache, fragment planner, budgets with
  retry/fallback), available through :func:`get_semantics` and the
  session layer.

Whether the oracle procedures draw warm SAT solvers is a property of the
process-wide :data:`~repro.sat.incremental.SOLVER_POOL`, not an engine:
``configure_solver_pool(0)`` makes every oracle call build its own
solver (e.g. for measuring cold-start costs).

The registry maps names and historical aliases (``circ``, ``wgcwa``,
``pms``, ...) to classes; :func:`get_semantics` instantiates by name and
the module-level helpers :func:`infer` / :func:`infers_literal` /
:func:`has_model` / :func:`model_set` provide a one-call API.
"""

from __future__ import annotations

import contextlib
import functools
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Optional, Tuple, Type, Union

from ..errors import ReproError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not, Var
from ..logic.interpretation import Interpretation
from ..obs import trace as _trace
from ..obs.accounting import observe as _observe
from ..obs.metrics import METRICS

#: Valid engine names accepted by :func:`get_semantics`.
ENGINES = ("oracle", "brute", "cached", "resilient", "planned")

#: Engines concrete semantics classes implement directly.
CONCRETE_ENGINES = ("oracle", "brute")

#: Engine names realized as wrapper façades over the oracle instance
#: (by :mod:`repro.engine` / :mod:`repro.analysis`).
WRAPPER_ENGINES = ("cached", "resilient", "planned")


def check_engine(engine: str) -> None:
    """Raise :class:`~repro.errors.ReproError` naming the valid engines
    unless ``engine`` is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r}; expected one of "
            + ", ".join(ENGINES)
        )


#: The shared entry points every semantics class exposes; these are the
#: observability seams — wrapping them instruments all semantics modules
#: (and the engine wrappers, which subclass :class:`Semantics`) at once.
ENTRY_POINTS = (
    "model_set", "infers", "infers_literal", "infers_brave", "has_model",
)

_ENTRY_CALLS = METRICS.counter(
    "repro_semantics_calls_total",
    "Semantics entry-point invocations",
    labelnames=("method",),
)


def _instrumented(method: str, fn):
    """Wrap one entry point with metrics + (when enabled) a span.

    The disabled path is deliberately thin: one pre-bound counter
    increment and an ``is_noop`` check, then straight into ``fn`` — no
    span objects, no attribute dicts, no observation windows.
    """
    counter = _ENTRY_CALLS.labels(method=method)

    @functools.wraps(fn)
    def wrapper(self, db, *args, **kwargs):
        counter.inc()
        tracer = _trace.active_tracer()
        if tracer.is_noop:
            return fn(self, db, *args, **kwargs)
        with tracer.span(
            f"semantics.{method}",
            semantics=self.name,
            engine=self.engine,
            atoms=len(db.vocabulary),
        ) as span:
            with _observe() as window:
                result = fn(self, db, *args, **kwargs)
            span.set_attributes(
                sat_calls=window.np_calls,
                sigma2_dispatches=window.sigma2_dispatches,
                nodes=window.nodes,
                max_sigma2_depth=window.max_sigma2_depth,
            )
            return result

    wrapper._obs_wrapped = True
    return wrapper


def _instrument_class(cls) -> None:
    """Wrap the entry points a class defines in its own ``__dict__``."""
    for method in ENTRY_POINTS:
        fn = cls.__dict__.get(method)
        if (
            fn is None
            or getattr(fn, "_obs_wrapped", False)
            or getattr(fn, "__isabstractmethod__", False)
        ):
            continue
        setattr(cls, method, _instrumented(method, fn))


@contextlib.contextmanager
def uninstrumented():
    """Swap every instrumented entry point back to its original.

    Exists solely for A/B overhead measurement (``bench_runner.py
    --overhead-check``): the instrumented-but-disabled path is compared
    against the genuinely bare methods.  Restores the wrappers on exit;
    not thread-safe, never use while queries run concurrently.
    """
    patched = []
    stack: list = [Semantics]
    seen = set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        for method in ENTRY_POINTS:
            fn = cls.__dict__.get(method)
            if fn is not None and getattr(fn, "_obs_wrapped", False):
                patched.append((cls, method, fn))
                setattr(cls, method, fn.__wrapped__)
    try:
        yield
    finally:
        for cls, method, fn in patched:
            setattr(cls, method, fn)


def literal_formula(literal: Literal) -> Formula:
    """A literal as a formula."""
    return Var(literal.atom) if literal.positive else Not(Var(literal.atom))


def ground_query(db: DisjunctiveDatabase, formula: Formula) -> Formula:
    """Replace query atoms outside the database vocabulary by ``false``.

    Models range over the vocabulary, so a stray atom is false in every
    selected model; grounding it up front keeps the oracle engines (which
    would otherwise leave it as a free SAT variable) consistent with the
    model-based definition.
    """
    stray = formula.atoms() - db.vocabulary
    if not stray:
        return formula
    from ..qbf.formula import substitute

    return substitute(formula, {atom: False for atom in stray})


class Semantics(ABC):
    """Base class for all disjunctive database semantics.

    Args:
        engine: ``"oracle"`` or ``"brute"`` (see module docstring).
    """

    #: Canonical lowercase name (e.g. ``"gcwa"``).
    name: str = ""
    #: Historical aliases also accepted by the registry.
    aliases: Tuple[str, ...] = ()
    #: Human-readable description for reports.
    description: str = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _instrument_class(cls)

    def __init__(self, engine: str = "oracle"):
        if engine in WRAPPER_ENGINES:
            raise ReproError(
                f"engine={engine!r} is a wrapper; obtain it via "
                f"get_semantics(name, engine={engine!r}) or a session"
            )
        if engine not in CONCRETE_ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = engine

    # ------------------------------------------------------------------
    # Applicability
    # ------------------------------------------------------------------
    def validate(self, db: DisjunctiveDatabase) -> None:
        """Raise if ``db`` lies outside this semantics' syntactic class.

        The default accepts everything; semantics defined only for
        deductive or stratified databases override this.
        """

    # ------------------------------------------------------------------
    # Memoization support
    # ------------------------------------------------------------------
    def cache_params(self) -> Tuple:
        """The hashable constructor parameters that distinguish this
        instance's answers — part of every memo-cache key built by the
        cached engine.  Parameterless semantics return ``()``;
        partition-parameterized semantics override (e.g. CCWA/ECWA return
        their ``(P, Z)`` blocks) so distinct parameterizations never share
        cache entries.
        """
        return ()

    # ------------------------------------------------------------------
    # The one search, and the decision problems derived from it
    # ------------------------------------------------------------------
    @abstractmethod
    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        """The set of models selected by this semantics."""

    def selected_model(
        self, db: DisjunctiveDatabase, condition: Formula
    ) -> Optional[Interpretation]:
        """A selected model satisfying ``condition``, or ``None``.

        ``condition`` is ground in ``db``'s vocabulary.  Default: scan
        :meth:`model_set`; oracle engines override this with the
        guess-and-check search of the semantics' membership proof.
        """
        return next(
            (m for m in self.model_set(db) if m.satisfies(condition)), None
        )

    def counter_model(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> Optional[Interpretation]:
        """A selected model falsifying ``formula`` — the certificate that
        cautious inference fails — or ``None`` when it is inferred."""
        self.validate(db)
        return self.selected_model(db, Not(ground_query(db, formula)))

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        """Formula inference: truth of ``formula`` in every selected
        model, i.e. no counter-model."""
        return self.counter_model(db, formula) is None

    def infers_literal(
        self, db: DisjunctiveDatabase, literal: Union[Literal, str]
    ) -> bool:
        """Literal inference.  Accepts a :class:`Literal` or a string such
        as ``"a"`` / ``"not a"``."""
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        return self.infers(db, literal_formula(literal))

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        """Model existence under this semantics."""
        self.validate(db)
        return bool(self.model_set(db))

    def infers_brave(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        """*Brave* (credulous) inference: truth of ``formula`` in at
        least one selected model — the companion mode to the cautious
        :meth:`infers` (beyond the paper's tables, which are cautious
        throughout): the same search with ``F`` in place of ``¬F``.
        """
        self.validate(db)
        return self.selected_model(db, ground_query(db, formula)) is not None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}(engine={self.engine!r})"


# The base class itself defines the default implementations of several
# entry points (subclasses only re-wrap the ones they override).
_instrument_class(Semantics)


#: The registry of semantics classes by canonical name.
SEMANTICS: Dict[str, Type[Semantics]] = {}
_ALIASES: Dict[str, str] = {}


def register(cls: Type[Semantics]) -> Type[Semantics]:
    """Class decorator adding a semantics to the registry."""
    if not cls.name:
        raise ReproError(f"{cls.__name__} has no name")
    if cls.name in SEMANTICS:
        raise ReproError(f"duplicate semantics name {cls.name!r}")
    SEMANTICS[cls.name] = cls
    for alias in cls.aliases:
        if alias in _ALIASES or alias in SEMANTICS:
            raise ReproError(f"duplicate semantics alias {alias!r}")
        _ALIASES[alias] = cls.name
    return cls


def resolve_name(name: str) -> str:
    """Canonicalize a semantics name or alias."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in SEMANTICS:
        known = ", ".join(sorted(SEMANTICS) + sorted(_ALIASES))
        raise ReproError(f"unknown semantics {name!r}; known: {known}")
    return key


def get_semantics(name: str, **kwargs) -> Semantics:
    """Instantiate a semantics by (alias-)name.

    Keyword arguments are forwarded to the class constructor — e.g.
    ``get_semantics("ecwa", p=..., z=...)`` for partition-parameterized
    semantics, or ``engine="brute"`` for the enumeration engine.

    ``engine="cached"`` returns the oracle instance wrapped in the
    process-wide memoizing engine
    (:class:`~repro.engine.cached.CachedSemantics`).

    ``engine="planned"`` returns the oracle instance wrapped in the
    fragment planner
    (:class:`~repro.analysis.planner.PlannedSemantics`): every query is
    dispatched to the cheapest procedure sound for the database's
    syntactic fragment (Horn ⇒ zero-SAT unit propagation,
    head-cycle-free ⇒ NP-level foundedness machine, otherwise the
    oracle procedures verbatim).

    ``engine="resilient"`` returns the oracle instance wrapped in the
    deadline-governed, fault-tolerant engine
    (:class:`~repro.engine.resilient.ResilientSemantics`), with the brute
    instance as the degraded-mode fallback.  The wrapper-only keyword
    arguments ``budget``, ``retry`` and ``fallback`` configure it (see
    :class:`~repro.runtime.budget.Budget` and
    :class:`~repro.engine.resilient.RetryPolicy`); they are rejected for
    other engines.
    """
    engine = kwargs.get("engine")
    wrapper_kwargs = {
        key: kwargs.pop(key)
        for key in ("budget", "retry", "fallback")
        if key in kwargs
    }
    if wrapper_kwargs and engine != "resilient":
        raise ReproError(
            f"{sorted(wrapper_kwargs)} only apply to engine='resilient'"
        )
    if engine == "cached":
        from ..engine.cached import CachedSemantics

        inner = SEMANTICS[resolve_name(name)](
            **{**kwargs, "engine": "oracle"}
        )
        return CachedSemantics(inner)
    if engine == "planned":
        from ..analysis.planner import PlannedSemantics

        inner = SEMANTICS[resolve_name(name)](
            **{**kwargs, "engine": "oracle"}
        )
        return PlannedSemantics(inner)
    if engine == "resilient":
        from ..engine.resilient import ResilientSemantics

        cls = SEMANTICS[resolve_name(name)]
        base_kwargs = {k: v for k, v in kwargs.items() if k != "engine"}
        inner = cls(**{**base_kwargs, "engine": "oracle"})
        if "fallback" not in wrapper_kwargs:
            # The brute enumerator shares no SAT-call fault surface with
            # the oracle engine, so it is the natural degraded mode.
            wrapper_kwargs["fallback"] = cls(
                **{**base_kwargs, "engine": "brute"}
            )
        return ResilientSemantics(inner, **wrapper_kwargs)
    return SEMANTICS[resolve_name(name)](**kwargs)


# ----------------------------------------------------------------------
# One-call convenience API
# ----------------------------------------------------------------------
def infer(
    db: DisjunctiveDatabase,
    formula: Formula,
    semantics: str = "egcwa",
    **kwargs,
) -> bool:
    """Does ``db`` infer ``formula`` under the named semantics?"""
    return get_semantics(semantics, **kwargs).infers(db, formula)


def infers_literal(
    db: DisjunctiveDatabase,
    literal: Union[Literal, str],
    semantics: str = "egcwa",
    **kwargs,
) -> bool:
    """Does ``db`` infer the literal under the named semantics?"""
    return get_semantics(semantics, **kwargs).infers_literal(db, literal)


def has_model(
    db: DisjunctiveDatabase, semantics: str = "egcwa", **kwargs
) -> bool:
    """Does ``db`` have a model under the named semantics?"""
    return get_semantics(semantics, **kwargs).has_model(db)


def model_set(
    db: DisjunctiveDatabase, semantics: str = "egcwa", **kwargs
) -> FrozenSet[Interpretation]:
    """The models that the named semantics selects for ``db``."""
    return get_semantics(semantics, **kwargs).model_set(db)
