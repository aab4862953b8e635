"""Every mutant list still applies to the source: a stale line would only show in a manual run of tests/mutate.py."""

from pathlib import Path

import pytest

import mutate

LISTS = sorted(Path(__file__).parent.glob("mutants_*.txt"))


@pytest.mark.parametrize("listing", LISTS, ids=[path.name for path in LISTS])
def test_every_mutant_applies_once(listing):
    stale = []
    for path, old, _ in mutate.mutants(listing):
        count = (mutate.ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            stale.append(f"{path}: {old!r} occurs {count} times")
    assert not stale, stale
