import numpy as np
import pytest

from entlab.chains import free_fermion_entropy_scan
from entlab.freefermion import (
    block_entropy_bits,
    ground_covariance,
    majorana_quadratic,
    xy_ground_covariance,
)


def test_quadratic_form_is_antisymmetric():
    for sign in (0.0, 1.0, -1.0):
        k = majorana_quadratic(0.7, 0.9, 8, sign)
        assert np.abs(k + k.T).max() == 0.0


def test_anisotropy_outside_the_unit_interval_is_rejected():
    # the range build_xy accepts and the dense oracle checks
    for gamma in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"anisotropy must lie in \[0, 1\]"):
            majorana_quadratic(gamma, 1.0, 8, -1.0)
    majorana_quadratic(1.0, 1.0, 8, -1.0)


def test_covariance_properties():
    k = majorana_quadratic(1.0, 0.6, 8, -1.0)
    energy, cov, parity = ground_covariance(k)
    assert parity in (-1, 1)
    assert np.abs(cov + cov.T).max() <= 1e-12
    w = np.linalg.eigvalsh(1j * cov).real
    assert np.abs(np.abs(w) - 1.0).max() <= 1e-10  # pure Gaussian state


def test_parity_constraint_flips_one_mode():
    k = majorana_quadratic(1.0, 0.6, 8, -1.0)
    e_free, _, parity = ground_covariance(k)
    e_forced, _, forced_parity = ground_covariance(k, parity=-parity)
    assert forced_parity == -parity
    assert e_forced >= e_free


def test_sector_selection_reproduces_dense_energy():
    # dense oracle for the periodic ground energy at several couplings
    from entlab.chains import build_xy, ground_state

    for gamma, h in ((1.0, 1.0), (0.3, 0.4), (0.0, 1.1)):
        w, _ = ground_state(build_xy(gamma, h, 8), k=1)
        e, _ = xy_ground_covariance(gamma, h, 8, bc="periodic")
        assert e == pytest.approx(w[0], abs=1e-10)


def test_block_entropy_monotone_block():
    _, cov = xy_ground_covariance(1.0, 1.0, 64)
    s = [block_entropy_bits(cov, b) for b in (4, 8, 16)]
    assert s[0] < s[1] < s[2]  # grows toward the half chain at criticality


def test_a_block_outside_the_chain_is_rejected():
    _, cov = xy_ground_covariance(1.0, 1.0, 8)
    for n_block in (-1, 0, 8, 12):
        with pytest.raises(ValueError, match="1 <= n < N"):
            block_entropy_bits(cov, n_block)
    for blocks in ([-1, 2], [2, 12]):
        with pytest.raises(ValueError, match="1 <= n < N"):
            free_fermion_entropy_scan(1.0, 1.0, 8, blocks)
    assert block_entropy_bits(cov, 1) > 0 and block_entropy_bits(cov, 7) > 0


def test_open_chain_end_block_scaling_is_half():
    # an end block of an open critical chain carries half the periodic slope
    ns = list(range(8, 33))
    _, cov_open = xy_ground_covariance(0.0, 0.0, 256, bc="open")
    _, cov_pbc = xy_ground_covariance(0.0, 0.0, 256, bc="periodic")
    s_open = [block_entropy_bits(cov_open, b) for b in ns]
    s_pbc = [block_entropy_bits(cov_pbc, b) for b in ns]
    fit = lambda ys: np.polyfit(np.log2(ns), ys, 1)[0]
    ratio = fit(np.asarray(s_pbc)) / fit(np.asarray(s_open))
    assert ratio == pytest.approx(2.0, abs=0.25)
