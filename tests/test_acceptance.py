"""Acceptance gate: every criterion runs at its stated tolerance.

Each criterion prints one pass/fail line; run with ``pytest -s`` to see
them, or use ``sparsedigraph selftest`` for the standalone report.
"""
import pytest

from sparsedigraph import acceptance
from sparsedigraph.acceptance import all_criteria
from sparsedigraph.errors import InternalInvariantError

_IDS = [name.split(".")[0] + "_" + name.split(" ")[1] for name, _ in all_criteria()]


@pytest.mark.parametrize("name,fn", all_criteria(), ids=_IDS)
def test_criterion(name, fn):
    result = fn()
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] {name} ({result.detail})")
    assert result.ok, f"{name}: {result.detail}"


def test_too_few_cyclic_steiner_instances_is_an_invariant_failure(monkeypatch):
    # no contraction anywhere: none of the 50 instances has a terminal cycle
    monkeypatch.setattr(acceptance, "preprocess_contract", lambda inst: (inst, None, 0))
    with pytest.raises(InternalInvariantError, match="^only 0 instances with terminal cycles$"):
        acceptance._dst_instances()
