"""The mutation list in tests/mutants.py still applies to the tree.

A full mutation run takes minutes; an entry whose old text no longer occurs
exactly once, or whose verdict is neither "must fail" nor an argued
equivalence, is caught here in milliseconds.
"""

from mutants import MUST_FAIL, MUTANTS, ROOT


def test_each_old_text_occurs_exactly_once():
    stale = [(rel, old) for rel, old, new, _ in MUTANTS
             if (ROOT / rel).read_text().count(old) != 1 or new == old]
    assert not stale


def test_each_verdict_is_must_fail_or_an_argued_equivalence():
    unjudged = [(rel, old, verdict) for rel, old, _, verdict in MUTANTS
                if verdict != MUST_FAIL and not verdict.startswith("equivalent: ")]
    assert not unjudged
