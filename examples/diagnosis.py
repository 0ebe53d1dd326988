"""Model-based diagnosis with ECWA / circumscription.

The CCWA/ECWA partition ``(P; Q; Z)`` is exactly the machinery of
minimization-based diagnosis: minimize the abnormality atoms ``ab_*``
(``P``), fix the observations (``Q``), and let the internal signals float
(``Z``).  The ``(P;Z)``-minimal models are the *minimal diagnoses*.

The circuit: two inverters in series.

    in --[inv1]-- mid --[inv2]-- out

Each gate either behaves (output = negated input) or is abnormal.  We
observe ``in = 1`` and — surprisingly — ``out = 0``: a healthy circuit
would restore the input (double inversion), so *some* gate must be
faulty.  The two minimal diagnoses are ``{ab1}`` and ``{ab2}``; the
disjunctive, minimal-model machinery keeps them apart without committing
to either.

Run with::

    python examples/diagnosis.py
"""

from repro import parse_database
from repro.semantics import get_semantics


def build_circuit():
    """Two inverters; ``ab_*`` atoms model faults.

    A behaving inverter forces its output to be the complement of its
    input; the clauses below say "if the gate is not abnormal, the output
    is determined".  Classical (material) encoding as database clauses:
    ``mid | ab1 :- in_high`` = "in high and gate1 healthy => mid low" is
    encoded through its contrapositive pieces.
    """
    return parse_database(
        """
        % gate 1: mid = not in (when healthy)
        ab1 | mid :- not in_high.        % in low  & healthy => mid high
        ab1 :- in_high, mid.             % in high & mid high => faulty
        % gate 2: out = not mid (when healthy)
        ab2 | out_high :- not mid.       % mid low & healthy => out high
        ab2 :- mid, out_high.            % mid high & out high => faulty
        % observations: input high, output LOW (out_high must be false)
        in_high.
        :- out_high.
        """
    )


def main() -> None:
    db = build_circuit()
    print("Diagnosis database:")
    print(db)
    print()

    observations = {"in_high", "out_high"}
    faults = {"ab1", "ab2"}
    floating = db.vocabulary - observations - faults

    # ECWA: minimize faults, fix observations, float internal lines.
    ecwa = get_semantics("ecwa", p=faults, z=floating)
    diagnoses = ecwa.model_set(db)
    print("(P;Z)-minimal models (minimal diagnoses):")
    seen = set()
    for model in sorted(diagnoses, key=str):
        fault_set = frozenset(model & faults)
        if fault_set not in seen:
            seen.add(fault_set)
            print("  faults:", sorted(fault_set) or "(none)",
                  "   full model:", model)
    print()

    # Which fault hypotheses are forced / excluded?
    for atom in sorted(faults):
        print(f"ECWA infers {atom}:     ", ecwa.infers_literal(db, atom))
        print(f"ECWA infers not {atom}: ",
              ecwa.infers_literal(db, "not " + atom))

    # Circumscription is the same semantics (CIRC = ECWA, paper Sec 3.3):
    # the registry resolves "circ" to ECWA itself.
    circ = get_semantics("circ", p=faults, z=floating)
    print()
    print("circ resolves to:", circ.name.upper())


if __name__ == "__main__":
    main()
