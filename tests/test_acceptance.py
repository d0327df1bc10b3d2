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
    solve = freefermion.xy_ground_covariance

    def shifted(*args):
        energy, cov = solve(*args)
        return energy + 1e-9, cov

    monkeypatch.setattr(freefermion, "xy_ground_covariance", shifted)
    result = selftest.check_area_law_slopes()
    assert not result.passed and result.details.startswith("free-fermion-energy:")


def test_area_law_criterion_solves_each_chain_once(monkeypatch):
    import scipy.linalg

    from entlab import selftest

    # one covariance per chain: the two N = 128 scans and the 11 dense-grid points,
    # each a periodic ring solved in its two parity sectors
    schur = scipy.linalg.schur
    calls = []
    monkeypatch.setattr(scipy.linalg, "schur", lambda *a, **k: calls.append(1) or schur(*a, **k))
    assert selftest.check_area_law_slopes().passed
    assert len(calls) == 2 * (2 + sum(len(grid) for _, grid in selftest.XY_DENSE_GRID)) == 26
