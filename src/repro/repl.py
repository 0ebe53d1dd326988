"""Interactive session: ``repro-ddb repl``.

A small read-eval loop over a :class:`~repro.session.DatabaseSession`.
Input lines are either *commands* (starting with ``:``) or *queries*
(formulas, answered under the current semantics and mode):

    :load FILE          replace the database from a file
    :add CLAUSE.        add a clause to the database
    :db                 show the current database
    :semantics NAME     switch semantics (gcwa, egcwa, dsm, ...)
    :mode cautious|brave
    :models             print the selected model set
    :exists             model existence under the current semantics
    :closure            the GCWA/WGCWA closure literals
    :explain QUERY      counter-model / derivation evidence for a query
    :stratify           show the stratification
    :stats              session accounting
    :help               this text
    :quit               leave

Everything else is parsed as a formula and answered, with a
counter-model when the (cautious) answer is negative.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional, TextIO

from .errors import ReproError
from .logic.database import DisjunctiveDatabase
from .logic.parser import parse_clause, parse_database
from .semantics import resolve_name
from .session import DatabaseSession

_HELP = __doc__.split("Input lines", 1)[1]


class Repl:
    """The REPL engine (I/O injected for testability)."""

    def __init__(
        self,
        db: Optional[DisjunctiveDatabase] = None,
        semantics: str = "egcwa",
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
    ):
        self.db = db if db is not None else DisjunctiveDatabase()
        self.semantics = resolve_name(semantics)
        self.mode = "cautious"
        self.stdin = stdin or sys.stdin
        self.stdout = stdout or sys.stdout
        self._session: Optional[DatabaseSession] = None

    # ------------------------------------------------------------------
    def _print(self, *parts) -> None:
        print(*parts, file=self.stdout)

    @property
    def session(self) -> DatabaseSession:
        if self._session is None:
            self._session = DatabaseSession(
                self.db, default_semantics=self.semantics
            )
        return self._session

    def _invalidate(self) -> None:
        self._session = None

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def _cmd_load(self, argument: str) -> None:
        with open(argument) as handle:
            self.db = parse_database(handle.read())
        self._invalidate()
        self._print(f"loaded {len(self.db)} clauses, "
                    f"{len(self.db.vocabulary)} atoms")

    def _cmd_add(self, argument: str) -> None:
        clause = parse_clause(argument)
        self.db = self.db.with_clauses([clause])
        self._invalidate()
        self._print(f"added: {clause}")

    def _cmd_db(self, _argument: str) -> None:
        self._print(str(self.db) if len(self.db) else "(empty database)")

    def _cmd_semantics(self, argument: str) -> None:
        if not argument:
            self._print(f"current semantics: {self.semantics}")
            return
        self.semantics = resolve_name(argument)
        self._invalidate()
        self._print(f"semantics: {self.semantics}")

    def _cmd_mode(self, argument: str) -> None:
        if argument not in ("cautious", "brave"):
            self._print("mode must be 'cautious' or 'brave'")
            return
        self.mode = argument
        self._print(f"mode: {self.mode}")

    def _cmd_models(self, _argument: str) -> None:
        models = sorted(self.session.models(self.semantics), key=str)
        self._print(f"{self.semantics.upper()} selects "
                    f"{len(models)} model(s):")
        for model in models:
            self._print("  ", model)

    def _cmd_exists(self, _argument: str) -> None:
        self._print(self.session.has_model(self.semantics))

    def _cmd_closure(self, _argument: str) -> None:
        from .semantics.state import (
            gcwa_closure_literals,
            wgcwa_closure_literals,
        )

        if self.db.has_negation:
            self._print("closures need a deductive database")
            return
        self._print(
            "WGCWA:",
            ", ".join(sorted(wgcwa_closure_literals(self.db)))
            or "(nothing)",
        )
        self._print(
            "GCWA: ",
            ", ".join(sorted(gcwa_closure_literals(self.db)))
            or "(nothing)",
        )

    def _cmd_explain(self, argument: str) -> None:
        from .semantics.explain import (
            derivation_of,
            explain_non_inference,
        )
        from .logic.parser import parse_formula

        if not argument:
            self._print("usage: :explain QUERY")
            return
        formula = parse_formula(argument)
        certificate = explain_non_inference(
            self.db, formula, self.semantics
        )
        if certificate is None:
            self._print(
                f"{self.semantics.upper()} infers {formula} — no "
                "counter-model exists"
            )
        else:
            self._print(certificate.render())
        # For single positive atoms on deductive DBs, show a derivation.
        atoms = formula.atoms()
        if len(atoms) == 1 and not self.db.has_negation:
            (atom,) = atoms
            derivation = derivation_of(self.db, atom)
            if derivation is not None:
                self._print(derivation.render())
            else:
                self._print(f"{atom} is not possibly true (no derivation)")

    def _cmd_stratify(self, _argument: str) -> None:
        from .engine.cache import stratification_for

        stratification = stratification_for(self.db)
        if stratification is None:
            self._print("not stratified")
            return
        for index, stratum in enumerate(stratification.strata, 1):
            self._print(f"S{index}: {{{', '.join(sorted(stratum))}}}")

    def _cmd_stats(self, _argument: str) -> None:
        for key, value in self.session.stats().items():
            self._print(f"{key}: {value}")

    def _cmd_help(self, _argument: str) -> None:
        self._print("Input lines" + _HELP)

    # ------------------------------------------------------------------
    def handle(self, line: str) -> bool:
        """Process one input line; returns ``False`` to stop the loop."""
        line = line.strip()
        if not line:
            return True
        if line in (":quit", ":q", ":exit"):
            return False
        if line.startswith(":"):
            command, _, argument = line[1:].partition(" ")
            handlers: Dict[str, Callable[[str], None]] = {
                "load": self._cmd_load,
                "add": self._cmd_add,
                "db": self._cmd_db,
                "semantics": self._cmd_semantics,
                "mode": self._cmd_mode,
                "models": self._cmd_models,
                "exists": self._cmd_exists,
                "closure": self._cmd_closure,
                "explain": self._cmd_explain,
                "stratify": self._cmd_stratify,
                "stats": self._cmd_stats,
                "help": self._cmd_help,
            }
            handler = handlers.get(command)
            if handler is None:
                self._print(f"unknown command :{command} (try :help)")
                return True
            try:
                handler(argument.strip())
            except (ReproError, OSError) as error:
                self._print(f"error: {error}")
            return True
        # A query.
        try:
            answer = self.session.ask(
                line, semantics=self.semantics, mode=self.mode
            )
        except ReproError as error:
            self._print(f"error: {error}")
            return True
        self._print(answer.render())
        return True

    def run(self) -> None:
        """The blocking loop (EOF or :quit ends it)."""
        self._print(
            "repro-ddb repl — :help for commands, :quit to leave"
        )
        for line in self.stdin:
            if not self.handle(line):
                break


def run_repl(db: Optional[DisjunctiveDatabase] = None,
             semantics: str = "egcwa") -> int:
    """Entry point used by the CLI."""
    Repl(db=db, semantics=semantics).run()
    return 0
