import math

import numpy as np
import pytest

from szego.errors import InputError, PreconditionError
from szego.flow import recover_rational
from szego.hankel import eigendecompose
from szego.oracle import (
    _nonlinearity,
    compare,
    edge_mass_fraction,
    grid_frequencies,
    grid_physical,
    grid_points,
    integrate,
    mass,
    sample_to_grid,
    self_convergence,
    step,
)
from szego.rational import simple_pole, spectral_density, zero


class TestSampleToGrid:
    def test_closed_form_fill(self, soliton_symbol):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        xi = grid_frequencies(100.0, 2**12)
        want = -2j * np.pi * np.exp(-xi)
        assert np.max(np.abs(g.amps - want)) < 1e-12
        assert abs(g.amps[-1]) < 1e-13

    def test_zero_symbol(self):
        g = sample_to_grid(zero(), 50.0, 2**8)
        assert np.all(g.amps == 0)

    def test_spectral_tail_guard(self, soliton_symbol):
        with pytest.raises(InputError, match="box too small"):
            sample_to_grid(soliton_symbol, 400.0, 2**12)

    def test_spatial_tail_guard(self, soliton_symbol):
        with pytest.raises(InputError, match="box too small"):
            sample_to_grid(soliton_symbol, 20.0, 2**10)

    def test_power_of_two_required(self, soliton_symbol):
        with pytest.raises(InputError, match="power of two"):
            sample_to_grid(soliton_symbol, 100.0, 3000)

    def test_interior_round_trip_scaling(self, soliton_symbol):
        # periodization of a 1/x-tailed function: interior values accurate
        # to O(1/L^2)-ish, improving with the box (pointwise machine
        # accuracy is not attainable on a periodic grid)
        errs = []
        for L, M in ((100.0, 2**12), (800.0, 2**15)):
            g = sample_to_grid(soliton_symbol, L, M)
            x = grid_points(L, M)
            mid = np.abs(x) < L / 2
            u = grid_physical(g)
            errs.append(np.max(np.abs(u[mid] - soliton_symbol.evaluate(x[mid]))))
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 6


class TestNonlinearity:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_matches_triple_sum(self, M):
        # the padded length n = M + max(M//8, 1) > M (odd n = 5 at M = 4)
        # must reproduce the alias-free cubic convolution on the kept modes
        rng = np.random.default_rng(M)
        K, L = M // 2 + 1, 7.0
        a = rng.normal(size=K) + 1j * rng.normal(size=K)
        want = np.zeros(K, dtype=complex)
        for k1 in range(K):
            for k2 in range(K):
                for k3 in range(K):
                    k = k1 + k2 - k3
                    if 0 <= k < K:
                        want[k] += a[k1] * a[k2] * np.conj(a[k3])
        want /= (2 * L) ** 2
        got = _nonlinearity(a, L, M)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


class TestStep:
    def test_zero_fixed_point(self):
        g = sample_to_grid(zero(), 50.0, 2**8)
        assert np.all(step(g, 1e-3).amps == 0)

    def test_stability_budget_guard(self, soliton_symbol):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        with pytest.raises(PreconditionError, match="stability budget"):
            step(g, 1.0)

    def test_short_soliton_run(self, soliton_symbol):
        # 100 steps of dt = 1e-3 against the exact soliton, big box so the
        # periodization floor sits below 1e-8
        L, M = 3200.0, 2**17
        g = integrate(sample_to_grid(soliton_symbol, L, M), 0.1, 1e-3)
        dec = eigendecompose(soliton_symbol)
        aex = spectral_density(recover_rational(dec, 0.1),
                               grid_frequencies(L, M))
        err = math.sqrt(g.dxi / (2 * math.pi) * np.sum(np.abs(g.amps - aex) ** 2))
        assert err < 1e-8

    def test_mass_drift_ten_thousand_steps(self, soliton_symbol):
        g0 = sample_to_grid(soliton_symbol, 55.0, 2**11)
        m0 = mass(g0)
        gt = integrate(g0, 10.0, 1e-3)
        assert abs(mass(gt) - m0) / m0 < 1e-10

    def test_whole_steps_required(self, soliton_symbol):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        with pytest.raises(InputError, match="whole number"):
            integrate(g, 0.00037, 1e-3)

    def test_backward_steps(self, soliton_symbol):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        back = integrate(g, -0.01, 1e-3)
        assert back.time == pytest.approx(-0.01)
        again = integrate(back, 0.0, 1e-3)
        assert np.max(np.abs(again.amps - g.amps)) < 1e-12
        with pytest.raises(PreconditionError, match="stability budget"):
            step(g, -1.0)


class TestSelfConvergence:
    def test_fourth_order(self, soliton_symbol):
        sc = self_convergence(soliton_symbol, 1.0, 100.0, 2**12, 0.04)
        assert 3.5 < sc["order"] < 4.5


class TestCompare:
    def test_zero_time_exact(self, generic_m2):
        rep = compare(generic_m2, 0.0, 100.0, 2**12, 1e-3)
        assert rep["l2_error"] < 1e-10
        assert rep["linf_error"] < 1e-10

    def test_soliton_short_window(self, soliton_symbol):
        # measured discretization level at the reference half-budget
        rep = compare(soliton_symbol, 0.25, 200.0, 2**14, 1e-3)
        assert rep["l2_error"] < 1e-5
        assert rep["j2_drift_oracle"] < 1e-12
        assert rep["edge_mass_fraction"] < 1e-3

    def test_documented_resolution_agreement(self, generic_m2):
        # oracle-agreement budget: at L = 1600, M = 2^16 the commutator of
        # periodization and the flow sits below 1e-6 for |t| <= 0.5
        rep = compare(generic_m2, 0.5, 1600.0, 2**16, 1e-3)
        assert rep["l2_error"] < 1e-6

    def test_soliton_backward_window(self, soliton_symbol):
        # same bounds as the forward window: the oracle steps with -dt
        rep = compare(soliton_symbol, -0.25, 200.0, 2**14, 1e-3)
        assert rep["l2_error"] < 1e-5
        assert rep["j2_drift_oracle"] < 1e-12

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_time_step(self, soliton_symbol, dt):
        with pytest.raises(InputError, match="time step"):
            compare(soliton_symbol, 0.05, 100.0, 2**12, dt)

    @pytest.mark.parametrize("L", [0.0, -100.0, float("nan"), float("inf")])
    def test_bad_box(self, soliton_symbol, L):
        with pytest.raises(InputError, match="half-width"):
            compare(soliton_symbol, 0.05, L, 2**12, 1e-3)

    def test_honesty_window(self, soliton_symbol):
        with pytest.raises(PreconditionError, match="honesty window"):
            compare(soliton_symbol, 6.0, 200.0, 2**14, 1e-3)
