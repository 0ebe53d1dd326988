"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that

* the same seed gives byte-identical databases and queries, also in two
  interpreters with different hash seeds, and another seed does not;
* installing the layer wrappers and removing them leaves every answer
  unchanged and puts every original function back;
* the mask-based stable-model reference agrees with the ``brute``
  engine's DSM;
* a serve-churn or session-sigma2 case and its canonical renaming have
  the same reference answers (the check of a run computes one per
  structure).

Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def rendered_inputs(seed: int) -> str:
    """Every input the three workloads would send, as one JSON text."""
    return json.dumps({
        "warm": [c.as_json() for c in inputs.warm_set()],
        "warm_order": inputs.warm_order(seed, 2),
        "churn": [inputs.churn_case(seed, i).as_json() for i in range(60)],
        "sigma2": [inputs.sigma2_case(seed, i).as_json() for i in range(30)],
    })


def digest_in_fresh_interpreter(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, __file__, "--digest", str(seed)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return out.stdout.strip()


def answers(cases, engine: str):
    from repro.session import DatabaseSession

    out = []
    for case in cases:
        session = DatabaseSession(case.database(), engine=engine)
        for q in case.queries:
            if q.task == "infers":
                out.append(session.ask(q.query, semantics=q.semantics).verdict)
            elif q.task == "infers_literal":
                out.append(session.ask_literal(q.query, q.semantics).verdict)
            elif q.task == "has_model":
                out.append(session.has_model(q.semantics))
            else:
                out.append(sorted(sorted(m) for m in session.models(q.semantics)))
    return out


def module_bindings():
    """Identity of every attribute of every loaded ``repro`` module."""
    return {
        (module.__name__, attr): id(value)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for attr, value in list(vars(module).items())
    }


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        sys.exit(1)


def main() -> int:
    from layers import LayerTracer
    from repro.engine.cache import clear_cache
    from repro.semantics import get_semantics

    first = digest_in_fresh_interpreter(7, "1")
    check(
        first == digest_in_fresh_interpreter(7, "2"),
        "seed 7 gives byte-identical inputs in two interpreters",
    )
    check(
        first != digest_in_fresh_interpreter(8, "1"),
        "seed 8 gives other inputs than seed 7",
    )

    workloads = [
        (inputs.warm_set()[::3], "cached"),
        ([inputs.churn_case(3, i) for i in range(15)], "planned"),
        ([inputs.sigma2_case(3, i) for i in range(6)], "oracle"),
    ]
    tracer = LayerTracer()
    originals = [(owner, attr, fn) for _l, owner, attr, fn in tracer.targets()]
    bindings = module_bindings()
    for cases, engine in workloads:
        clear_cache()
        plain = answers(cases, engine)
        tracer.reset()
        tracer.install()
        try:
            clear_cache()
            traced = answers(cases, engine)
        finally:
            tracer.remove()
        clear_cache()
        after = answers(cases, engine)
        check(
            plain == traced == after,
            f"{len(plain)} {engine} answers unchanged by installing and "
            "removing the wrappers",
        )
        sessions = tracer.dump()["layers"].get("session.self", {})
        check(
            sessions.get("calls") == len(plain),
            f"one session.self span per {engine} query while installed",
        )
    check(
        all(vars(owner)[attr] is fn for owner, attr, fn in originals)
        and module_bindings() == bindings,
        f"all {len(originals)} wrapped callables and every module-level "
        "reference to them restored",
    )

    brute = get_semantics("dsm", engine="brute")
    dbs = [inputs.churn_case(5, i).database() for i in range(25)]
    dbs += [inputs.sigma2_case(5, i).database() for i in range(4)]
    check(
        all(
            set(inputs.stable_models(db)) == set(brute.model_set(db))
            for db in dbs
        ),
        f"mask stable models equal brute DSM on {len(dbs)} databases",
    )

    for name, make, cycle in (
        ("serve-churn", inputs.churn_case, inputs.CHURN_CYCLE),
        ("session-sigma2", inputs.sigma2_case, inputs.SIGMA2_CYCLE),
    ):
        renamed = [make(5, i) for i in range(5)] + [make(6, cycle), make(5, cycle)]
        check(
            all(
                inputs.reference_answers(case)
                == inputs.reference_answers(inputs.canonical_case(case))
                for case in renamed
            )
            and len(set(renamed)) == len(renamed)
            and inputs.canonical_case(renamed[0])
            == inputs.canonical_case(renamed[-2])
            == inputs.canonical_case(renamed[-1]),
            f"{name}: seeds and cycles rename one structure, and its "
            "canonical form has the same reference answers",
        )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        text = rendered_inputs(int(sys.argv[2]))
        print(hashlib.sha256(text.encode("utf-8")).hexdigest())
        sys.exit(0)
    sys.exit(main())
