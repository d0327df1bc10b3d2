"""Acceptance suite: every reproduction criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run pytest with ``-s`` to see them
as they complete; they also appear in captured output on failure).
"""

import pytest

from entlab.selftest import REGISTRY


# criterion 13 (sector spectra at N = 16, about a third of the suite's time) is the
# one slow criterion
@pytest.mark.parametrize("key,check", [
    pytest.param(key, check, id=f"criterion-{key}",
                 marks=[pytest.mark.slow] if key == "13" else [])
    for key, check in REGISTRY])
def test_acceptance_criterion(key, check):
    result = check()
    print(f"[{key:>2}] {result.line()}")
    assert result.passed, result.details


def test_area_law_criterion_fails_when_the_free_fermion_energy_disagrees(monkeypatch):
    from entlab import freefermion, selftest

    # the N = 128 slope fits are not under test here, and one small chain will do
    monkeypatch.setattr(selftest, "arealaw", lambda *a, **k: selftest.Outcome({"slope": 0.0}, []))
    monkeypatch.setattr(selftest, "XY_DENSE_GRID", ((8, [(1.0, 1.0)]),))
    energy = freefermion.xy_ground_energy_free_fermion
    monkeypatch.setattr(freefermion, "xy_ground_energy_free_fermion", lambda *a: energy(*a) + 1e-9)
    result = selftest.check_area_law_slopes()
    assert not result.passed and result.details.startswith("free-fermion-energy:")
