"""Tests pinning the named instance suites (reproducibility stamps)."""

from repro.workloads.suites import (
    ALL_SUITES,
    normal_suite,
    stratified_suite,
    suite_digests,
    table1_suite,
    table2_suite,
)

#: Pinned digests: any change to the generators' sampling behaviour (or
#: the canonical rendering) must be deliberate and update these.
PINNED = {
    "table1-positive":
        "5721655fef4103fea4f2bbc723a02557da9e8712fc9ad3f2c02b38bfe97e45ce",
    "table2-deductive-ics":
        "327607112c8354342b0260c18128a17ef92ebfcda7f01f1b92890f7f55e02bd2",
    "table2-normal":
        "dab0ab4581c2653b603937bc98743571de7939d3220debb58f95733652e669a2",
    "table2-stratified":
        "e34a544c686068b02a470c4d877d288d83edd637ea7ce4d469e8e372ce026cb4",
}


def test_digests_are_pinned():
    assert suite_digests() == PINNED


def test_digests_are_stable_across_rebuilds():
    assert table1_suite().digest() == table1_suite().digest()


def test_suites_honor_their_regimes():
    assert all(db.is_positive for db in table1_suite().instances)
    assert any(
        db.has_integrity_clauses for db in table2_suite().instances
    )
    from repro.semantics.stratification import is_stratified

    assert all(is_stratified(db) for db in stratified_suite().instances)
    assert any(db.has_negation for db in normal_suite().instances)


def test_stats_fields():
    stats = table1_suite().stats()
    assert stats["instances"] == 8
    assert stats["clauses"] > 0
    assert stats["integrity"] == 0  # positive regime


def test_registry_builds_everything():
    for name, build in ALL_SUITES.items():
        suite = build()
        assert suite.name == name
        assert suite.instances
