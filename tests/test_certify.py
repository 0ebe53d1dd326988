"""Complexity certification over the full differential corpus.

Every (semantics row, decision problem) cell of the paper's Table 1 and
Table 2 must (a) have a claim and an enforced envelope, and (b) hold
empirically: running the 220-database differential corpus through the
realized decision procedures under a *strict*
:class:`~repro.obs.certify.Certifier` raises no
:class:`~repro.obs.certify.CertificationError`.  A deliberately
miscounted fake machine closes the loop: the certifier must catch a
procedure whose oracle usage has the wrong shape (a coNP cell dispatching
the Σ₂ᵖ primitive, or nesting dispatches).
"""

from __future__ import annotations

import pytest

from repro.complexity.classes import ROW_ORDER, Regime, Task, table
from repro.logic.atoms import Literal
from repro.logic.parser import parse_database
from repro.obs.accounting import observe, sigma2_dispatch
from repro.obs.certify import (
    CertificationError,
    Certifier,
    ORACLE_ENGINES,
    TASK_FOR_METHOD,
    VIOLATIONS,
    canonical_name,
)
from repro.semantics import get_semantics
from repro.session import DatabaseSession
from repro.workloads import (
    random_deductive_db,
    random_positive_db,
    random_query_formula,
)

from test_differential import COUNTS, SEMANTICS_FOR, build_db

#: The engines certified per corpus database: one oracle-envelope
#: representative (the pooled production engine) and the node-enveloped
#: brute ground truth.
ENGINES = ("oracle", "brute")


# ----------------------------------------------------------------------
# Static coverage: every table cell maps to a claim and an envelope
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", [Regime.POSITIVE, Regime.WITH_ICS])
def test_every_cell_has_claim_and_envelope(regime):
    for row in ROW_ORDER:
        for task in Task:
            claim = Certifier.claim_for(row, task, regime)
            assert claim.upper is not None, (row, task)
            for engine in ORACLE_ENGINES + ("brute",):
                envelope = Certifier.envelope_for(row, task, regime, engine)
                assert envelope is not None, (row, task, engine)


def test_aliases_resolve_to_table_rows():
    for alias, row in (("circ", "ecwa"), ("wgcwa", "ddr"), ("pms", "pws")):
        assert canonical_name(alias) == row
    for row in ROW_ORDER:
        assert canonical_name(row) in [canonical_name(r) for r in ROW_ORDER]


def test_resilient_engine_is_out_of_scope():
    env = Certifier.envelope_for(
        "gcwa", Task.FORMULA, Regime.POSITIVE, "resilient"
    )
    assert env is None
    db = parse_database("a | b.")
    with observe() as window:
        pass
    cert = Certifier(strict=True).check(
        "gcwa", Task.FORMULA, db, window, "resilient"
    )
    assert not cert.certified and cert.ok


#: Registered semantics with no Table 1/2 row, each on a database of its
#: syntactic class (``supported`` is defined on normal programs only).
UNCERTIFIED = {
    "cwa": "a | b. c :- a. c :- b.",
    "supported": "a :- not b. b :- not a. c :- a. c :- b.",
}


@pytest.mark.parametrize("method", ["ask", "ask_literal", "has_model"])
@pytest.mark.parametrize("semantics", sorted(UNCERTIFIED))
def test_semantics_without_a_table_row_are_out_of_scope(semantics, method):
    """Like brave mode, a semantics outside the paper's tables is
    answered uncertified instead of failing after the answer."""
    session = DatabaseSession(
        parse_database(UNCERTIFIED[semantics]),
        certifier=Certifier(strict=True),
    )
    if method == "has_model":
        assert isinstance(session.has_model(semantics=semantics), bool)
    else:
        answer = getattr(session, method)("c", semantics=semantics)
        assert isinstance(answer.verdict, bool)
        assert answer.complexity is None
    assert session.certificates_checked == 0


def test_task_for_method_covers_the_session_entry_points():
    assert TASK_FOR_METHOD["infers"] is Task.FORMULA
    assert TASK_FOR_METHOD["infers_literal"] is Task.LITERAL
    assert TASK_FOR_METHOD["has_model"] is Task.EXISTS_MODEL


# ----------------------------------------------------------------------
# Empirical: zero violations over the differential corpus
# ----------------------------------------------------------------------
def _certify_regime(regime: str) -> Certifier:
    certifier = Certifier(strict=True)
    for seed in range(COUNTS[regime]):
        db = build_db(regime, seed)
        query = random_query_formula(
            sorted(db.vocabulary), depth=2, seed=seed
        )
        literal = Literal.pos(sorted(db.vocabulary)[0])
        for name in SEMANTICS_FOR[regime]:
            for engine in ENGINES:
                semantics = get_semantics(name, engine=engine)
                for task, run in (
                    (Task.FORMULA, lambda s: s.infers(db, query)),
                    (Task.LITERAL, lambda s: s.infers_literal(db, literal)),
                    (Task.EXISTS_MODEL, lambda s: s.has_model(db)),
                ):
                    with observe() as window:
                        run(semantics)
                    certifier.check(name, task, db, window, engine)
    return certifier


@pytest.mark.parametrize("regime", sorted(COUNTS))
def test_corpus_has_zero_certificate_violations(regime):
    """Strict certification of every (db, semantics, task, engine) of a
    corpus regime: a violation raises, and the aggregate counters stay
    clean."""
    certifier = _certify_regime(regime)
    assert certifier.checked > 0
    assert certifier.violated == []


def test_corpus_covers_every_certifiable_cell():
    """The corpus exercises every (row, task) cell of both tables (via
    the applicability map), so the zero-violation tests above really do
    quantify over the whole of Tables 1 and 2."""
    covered = set()
    for regime, names in SEMANTICS_FOR.items():
        regimes_hit = {
            Certifier.classify(build_db(regime, seed))
            for seed in range(COUNTS[regime])
        }
        for name in names:
            for task in Task:
                for table_regime in regimes_hit:
                    covered.add((canonical_name(name), task, table_regime))
    for regime in (Regime.POSITIVE, Regime.WITH_ICS):
        for (row, task) in table(regime):
            assert (row, task, regime) in covered, (row, task, regime)


# ----------------------------------------------------------------------
# The certifier catches a miscounted machine
# ----------------------------------------------------------------------
def _run_miscounted_machine(db, query):
    """A fake decision procedure with the wrong oracle shape: it answers
    a coNP-cell formula query (DDR inference) by dispatching the Σ₂ᵖ
    primitive — nested, for good measure."""
    semantics = get_semantics("ddr", engine="oracle")
    with sigma2_dispatch():
        with sigma2_dispatch():  # illegal depth-2 nesting
            return semantics.infers(db, query)


def test_strict_certifier_catches_miscounted_machine():
    db = parse_database("a | b. c :- a.")
    query = random_query_formula(sorted(db.vocabulary), depth=2, seed=0)
    with observe() as window:
        _run_miscounted_machine(db, query)
    assert window.sigma2_dispatches >= 2
    assert window.max_sigma2_depth >= 2
    with pytest.raises(CertificationError) as excinfo:
        Certifier(strict=True).check(
            "ddr", Task.FORMULA, db, window, "oracle"
        )
    rendered = str(excinfo.value)
    assert "sigma2_dispatches" in rendered
    assert "max_sigma2_depth" in rendered


def test_production_certifier_records_instead_of_raising():
    db = parse_database("a | b. c :- a.")
    query = random_query_formula(sorted(db.vocabulary), depth=2, seed=0)
    with observe() as window:
        _run_miscounted_machine(db, query)
    before = VIOLATIONS.labels(semantics="ddr", task="FORMULA").value
    certifier = Certifier(strict=False)
    certificate = certifier.check(
        "ddr", Task.FORMULA, db, window, "oracle"
    )
    assert not certificate.ok
    assert certifier.violated == [certificate]
    after = VIOLATIONS.labels(semantics="ddr", task="FORMULA").value
    assert after == before + 1
    assert any(
        v.metric == "sigma2_dispatches" for v in certificate.violations
    )


# ----------------------------------------------------------------------
# Envelope rendering, overrides, and certificate export
# ----------------------------------------------------------------------
def test_bound_and_envelope_render_forms():
    from repro.obs.certify import Bound, CellEnvelope, UNBOUNDED

    assert UNBOUNDED.render() == "unbounded"
    assert Bound().render() == "0"
    assert Bound(const=2, per_atom=3).render() == "2 + 3n"
    assert Bound(exp_coef=4, exp_base=3.0).render() == "4*3^n"
    text = CellEnvelope(np_calls=Bound(const=1)).render()
    assert text.startswith("np<=1 ")
    assert "depth<=1" in text


def test_certificate_render_and_as_dict():
    db = parse_database("a | b. c :- a.")
    query = random_query_formula(sorted(db.vocabulary), depth=2, seed=0)
    with observe() as window:
        _run_miscounted_machine(db, query)
    with pytest.raises(CertificationError) as excinfo:
        Certifier(strict=True).check("ddr", Task.FORMULA, db, window, "oracle")
    certificate = excinfo.value.certificate
    assert not certificate.ok
    text = certificate.render()
    assert "VIOLATED" in text
    assert "sigma2_dispatches" in text
    data = certificate.as_dict()
    assert data["ok"] is False
    assert data["claim"] == certificate.claim.render()
    assert data["violations"]


def test_uncertified_certificate_renders_engine():
    db = parse_database("a | b.")
    with observe() as window:
        pass
    certificate = Certifier().check(
        "ddr", Task.FORMULA, db, window, "resilient"
    )
    assert not certificate.certified
    assert "uncertified" in certificate.render()
    assert certificate.as_dict()["envelope"] is None


def test_unknown_cell_raises_informative_keyerror():
    with pytest.raises(KeyError, match="no Table 1 cell"):
        Certifier.claim_for("nosuchsemantics", Task.FORMULA, Regime.POSITIVE)


def test_envelope_override_wins_over_class_default():
    from repro.obs import certify as certify_mod
    from repro.obs.certify import Bound, CellEnvelope

    key = ("ddr", Task.FORMULA, Regime.POSITIVE)
    custom = CellEnvelope(np_calls=Bound(const=99))
    certify_mod.ENVELOPE_OVERRIDES[key] = custom
    try:
        assert (
            Certifier.envelope_for(
                "ddr", Task.FORMULA, Regime.POSITIVE, "oracle"
            )
            is custom
        )
    finally:
        del certify_mod.ENVELOPE_OVERRIDES[key]


def test_violation_attaches_span_event():
    from repro.obs.trace import Tracer

    db = parse_database("a | b. c :- a.")
    query = random_query_formula(sorted(db.vocabulary), depth=2, seed=0)
    with observe() as window:
        _run_miscounted_machine(db, query)
    tracer = Tracer()
    certifier = Certifier(strict=False)
    with tracer.span("query.ask") as span:
        certificate = certifier.check(
            "ddr", Task.FORMULA, db, window, "oracle", span=span
        )
    assert not certificate.ok
    (root,) = tracer.finished_roots()
    events = [e for e in root.events if e["name"] == "CertificateViolation"]
    assert events
    assert any(e["metric"] == "sigma2_dispatches" for e in events)


# ----------------------------------------------------------------------
# Strict model existence where the bounds bind: 8-16 atoms
# ----------------------------------------------------------------------
#: Every table row plus the registry aliases folded into one.
EXISTENCE_NAMES = tuple(ROW_ORDER) + ("circ", "wgcwa", "pms")


@pytest.mark.parametrize("name", EXISTENCE_NAMES)
def test_strict_model_existence_at_scale(name):
    """Model existence meets its Table 1/2 cell (O(1) on positive
    databases, NP with integrity clauses) at 8, 12 and 16 atoms — sizes
    the 4-5-atom differential corpus never reaches, where an enumerating
    procedure breaks the cell's bound."""
    for generate in (random_positive_db, random_deductive_db):
        for atoms in (8, 12, 16):
            for seed in range(4):
                db = generate(atoms, atoms, seed=seed)
                if name == "perf" and db.has_integrity_clauses:
                    continue  # PERF rejects integrity clauses
                session = DatabaseSession(
                    db, certifier=Certifier(strict=True)
                )
                session.has_model(semantics=name)
                assert session.certificates_checked == 1
