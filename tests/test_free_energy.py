import numpy as np
import pytest

from polymerlab.free_energy import (
    annealed_bound,
    concentration_from_samples,
    concentration_profile,
    estimate_derivative,
    estimate_free_energies,
    estimate_free_energy,
    multi_temp_consistency,
    multi_temp_gap,
)
from polymerlab.lattice import LatticeParams, make_partition


class TestEstimateFreeEnergy:
    def test_beta_zero_exact(self):
        est = estimate_free_energy(0.0, LatticeParams(d=1, N=64), 8, master_seed=1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_jensen_bound(self, beta):
        est = estimate_free_energy(beta, LatticeParams(d=1, N=128), 60, master_seed=2)
        assert est.mean <= annealed_bound(beta) + 3 * est.stderr

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            estimate_free_energy(1.0, LatticeParams(d=1, N=8), 1, master_seed=0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_matches_one_beta_at_a_time(self, d):
        params, betas = LatticeParams(d=d, N=16), (0.0, 0.5, 1.0, 2.5)
        grid = estimate_free_energies(betas, params, 200, master_seed=21)
        for beta, est in zip(betas, grid):
            one = estimate_free_energy(beta, params, 200, master_seed=21)
            assert est == one  # every field but the samples, exactly
            assert np.array_equal(est.samples, one.samples)
            assert est.mean == float(np.mean(est.samples))


    def test_ladder_matches_one_n_at_a_time(self):
        # an unsorted ladder with a repeated N is read off one pass per batch
        params, betas, ns = LatticeParams(d=1, N=10), (0.0, 0.7, 10.0), (40, 9, 40, 23)
        ladder = estimate_free_energies(betas, params, 5, master_seed=8, ns=ns)
        assert [(e.N, e.beta) for e in ladder] == [(n, b) for n in ns for b in betas]
        for est in ladder:
            one = estimate_free_energy(est.beta, LatticeParams(d=1, N=est.N), 5, master_seed=8)
            assert est == one
            assert est.samples.tobytes() == one.samples.tobytes()


    def test_ladder_given_as_an_array(self):
        params, betas = LatticeParams(d=1, N=10), (0.0, 0.7)
        got = estimate_free_energies(betas, params, 3, master_seed=8, ns=np.array([64, 16]))
        want = estimate_free_energies(betas, params, 3, master_seed=8, ns=(64, 16))
        assert [(e.N, e.beta) for e in got] == [(64, 0.0), (64, 0.7), (16, 0.0), (16, 0.7)]
        assert got == want

    def test_refuses_an_empty_ladder(self):
        with pytest.raises(ValueError, match="at least one N"):
            estimate_free_energies((0.7,), LatticeParams(d=1, N=10), 3, master_seed=8, ns=[])


class TestDerivative:
    def test_zero_at_origin(self):
        d = estimate_derivative(0.0, 1e-3, LatticeParams(d=1, N=128), 40, master_seed=4)
        assert abs(d) < 0.01

    def test_weak_disorder_slope(self):
        # p(beta) = beta^2/2 in the high-temperature regime, so p' ~ beta
        d = estimate_derivative(0.25, 1e-3, LatticeParams(d=1, N=256), 60, master_seed=5)
        assert abs(d - 0.25) < 0.05

    def test_needs_an_environment(self):
        with pytest.raises(ValueError, match="n_disorder >= 1"):
            estimate_derivative(0.5, 1e-3, LatticeParams(d=1, N=16), 0, master_seed=4)
        with pytest.raises(ValueError, match="n_disorder >= 1"):
            concentration_profile(0.5, LatticeParams(d=1, N=16), 0, (0.1,), master_seed=4)

    def test_convexity_over_grid(self):
        params = LatticeParams(d=1, N=128)
        grid = [0.5, 1.0, 1.5, 2.0]
        slopes = [
            estimate_derivative(b, 1e-3, params, 80, master_seed=6) for b in grid
        ]
        ests = [estimate_free_energy(b, params, 80, master_seed=6) for b in grid]
        tol = 3 * max(e.stderr for e in ests)
        assert all(s2 >= s1 - tol for s1, s2 in zip(slopes, slopes[1:]))


class TestConcentration:
    def test_beta_zero_tail_is_zero(self):
        prof = concentration_profile(
            0.0, LatticeParams(d=1, N=64), 50, (0.05, 0.1), master_seed=7
        )
        assert np.all(prof.empirical == 0.0)
        assert np.all(prof.bound == 0.0)

    def test_within_gaussian_bound(self):
        prof = concentration_profile(
            1.0, LatticeParams(d=1, N=128), 300, (0.05, 0.1, 0.2, 0.4), master_seed=8
        )
        assert prof.within_bound(3.0)

    def test_large_u_both_vanish(self):
        prof = concentration_profile(
            0.7, LatticeParams(d=1, N=128), 100, (2.0, 5.0), master_seed=9
        )
        assert np.all(prof.empirical == 0.0)
        assert np.all(prof.bound < 1e-50)

    def test_profile_from_grid_samples(self):
        params = LatticeParams(d=1, N=32)
        est = estimate_free_energies((0.4, 1.5), params, 40, master_seed=16)[1]
        got = concentration_from_samples(1.5, params, est.samples, (0.05, 0.2))
        ref = concentration_profile(1.5, params, 40, (0.05, 0.2), master_seed=16)
        for name in ("u_grid", "empirical", "bound", "binomial_sigma"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got.n_disorder == ref.n_disorder == 40

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            concentration_profile(1.0, LatticeParams(d=1, N=32), 10, (0.0, 0.1), 0)


class TestMultiTemperature:
    def test_single_block_gap_zero(self):
        p = make_partition(16, 1)
        est = multi_temp_gap(p, [1.3], d=1, n_disorder=5, master_seed=10)
        assert est.gap == 0.0

    def test_zero_temperatures_gap_zero(self):
        p = make_partition(16, 2)
        est = multi_temp_gap(p, [0.0, 0.0], d=1, n_disorder=5, master_seed=11)
        assert est.gap == 0.0

    def test_minimum_length_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            multi_temp_gap(make_partition(8, 3), [1, 1, 1], d=1, n_disorder=4, master_seed=0)

    def test_gap_shrinks_with_n(self):
        gaps = multi_temp_consistency(
            [32, 128], 2, (0.5, 1.5), d=1, n_disorder=60, master_seed=12
        )
        assert gaps[1].gap < gaps[0].gap

    def test_refuses_an_empty_disorder_sample(self):
        with pytest.raises(ValueError, match="at least one environment"):
            multi_temp_gap(make_partition(16, 2), [0.5, 1.5], d=1, n_disorder=0, master_seed=0)

    def test_wrong_beta_count(self):
        with pytest.raises(ValueError):
            multi_temp_gap(make_partition(16, 2), [1.0], d=1, n_disorder=4, master_seed=0)


def low_temp_gap(beta, params, n_disorder, master_seed):
    """Annealed-minus-quenched gap and its stderr; a gap >> stderr evidences low temperature."""
    (est,) = estimate_free_energies([beta], params, n_disorder, master_seed)
    return annealed_bound(beta) - est.mean, est.stderr


class TestLowTempGap:
    def test_beta_zero(self):
        gap, _ = low_temp_gap(0.0, LatticeParams(d=1, N=64), 8, master_seed=13)
        assert gap == 0.0

    def test_jensen_floor_any_n(self):
        for n in (16, 64, 256):
            gap, stderr = low_temp_gap(1.0, LatticeParams(d=1, N=n), 40, master_seed=14)
            assert gap >= -3 * stderr

    def test_strong_disorder_at_large_beta(self):
        gap, stderr = low_temp_gap(2.0, LatticeParams(d=1, N=256), 60, master_seed=15)
        assert gap > 10 * stderr

    def test_strong_disorder_regression_n1024(self):
        gap, stderr = low_temp_gap(2.0, LatticeParams(d=1, N=1024), 100, master_seed=6)
        assert gap > 10 * stderr
        assert gap > 0.8  # frozen: baseline run gives 0.8607(17)
