import math
import os
import subprocess
import sys

import numpy as np
import pytest

from szego.errors import InputError, NumericalError, PreconditionError
from szego.flow import recover_rational
from szego.hankel import eigendecompose
import szego
from szego.oracle import (
    GridState,
    _cubic,
    _workspace,
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

from conftest import fft_calls


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

    def test_integer_mode_count_required(self, soliton_symbol):
        with pytest.raises(InputError, match="must be an integer"):
            sample_to_grid(soliton_symbol, 100.0, 4096.0)
        with pytest.raises(InputError, match="must be an integer"):
            compare(soliton_symbol, 0.01, 100.0, 4096.0, 1e-3)
        with pytest.raises(InputError, match="must be an integer"):
            self_convergence(soliton_symbol, 0.01, 100.0, 4096.0, 1e-3)
        assert sample_to_grid(soliton_symbol, 100.0, np.int64(4096)).M == 4096

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


def _field(y, L):
    """-i FT(|u|^2 u) at the kept frequencies of y: `_cubic` with its scale put back."""
    M = 2 * (len(y) - 1)
    rows, sq, tw, slopes = _workspace(M)
    rows[0] = y[:-1]
    return _cubic(rows, complex(y[-1]), sq, tw, slopes[0]) * (-1j / (M * (2 * L) ** 2))


class TestNonlinearity:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    def test_matches_triple_sum(self, M):
        # the even/odd split on M points, less its two alias triples, must
        # reproduce the alias-free cubic convolution on the kept modes, times
        # the -i of the equation
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
        got = _field(a, L)
        assert np.max(np.abs(got + 1j * want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("M", [4, 8, 2**10])
    def test_top_and_bottom_mode_aliases(self, M):
        # with only modes 0 and M/2 set, the triples (M/2, M/2, 0) and
        # (0, 0, M/2) land on M and -M/2, which alias onto 0 and M/2 on M
        # points and must not reach the result
        K, L = M // 2 + 1, 3.0
        a, b = 0.7 - 1.1j, -0.4 + 0.9j
        y = np.zeros(K, dtype=complex)
        y[0], y[-1] = a, b
        want = np.zeros(K, dtype=complex)
        want[0] = a * abs(a) ** 2 + 2 * a * abs(b) ** 2
        want[-1] = b * abs(b) ** 2 + 2 * b * abs(a) ** 2
        want *= -1j / (2 * L) ** 2
        got = _field(y, L)
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

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step(self, soliton_symbol, dt):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        with pytest.raises(InputError, match="time step must be finite"):
            step(g, dt)

    @pytest.mark.parametrize("value, error", [
        (float("nan"), NumericalError),      # no budget to test: the step's result is NaN
        (float("inf"), PreconditionError),
        (1e200, PreconditionError),          # sup^2 overflows: dt above a budget of 0
    ])
    def test_amplitude_guards(self, soliton_symbol, value, error):
        amps = sample_to_grid(soliton_symbol, 100.0, 2**12).amps.copy()
        amps[7] = value
        g = GridState(100.0, 2**12, amps, 0.0)
        with pytest.raises(error):
            step(g, 1e-3)
        with pytest.raises(error):
            integrate(g, 0.002, 1e-3)

    def test_budget_at_the_float_range_ends(self, soliton_symbol):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        # dt = 0 is within any budget and leaves the state as it is
        assert step(g, 0.0).amps.tobytes() == g.amps.tobytes()
        # sup^2 underflows to 0: the budget is no division by it
        tiny = GridState(100.0, 2**12, np.full(2**11 + 1, 1e-170 + 0j), 0.0)
        assert np.all(np.isfinite(step(tiny, 1e-3).amps))

    @pytest.mark.parametrize("M", [2**8, 2**12])
    def test_transform_budget(self, monkeypatch, soliton_symbol, M):
        # four batched M/2-point inverse and forward transforms per step, nothing else
        L = 30.0
        g = GridState(L, M, spectral_density(soliton_symbol, grid_frequencies(L, M)), 0.0)
        calls = fft_calls(monkeypatch)
        step(g, 1e-3)
        assert calls == {"ifft": 4, "fft": 4}
        calls.clear()
        integrate(g, 0.005, 1e-3)
        assert calls == {"ifft": 20, "fft": 20}


def _padded_rk4_step(a, dt, L):
    """Textbook RK4 step, cubic term on a zero-padded 2M-point FFT."""
    n = 4 * (len(a) - 1)   # 2M: the triples span [-M/2, M], none aliases

    def rhs(y):
        v = np.fft.ifft(y, n) * n
        return -1j * np.fft.fft(v * np.abs(v) ** 2)[:len(y)] / (n * (2 * L) ** 2)

    k1 = rhs(a)
    k2 = rhs(a + 0.5 * dt * k1)
    k3 = rhs(a + 0.5 * dt * k2)
    k4 = rhs(a + dt * k3)
    return a + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestWorkspace:
    def test_matches_padded_reference(self, generic_m2):
        L, M, dt = 30.0, 2**10, 1e-2
        amps = spectral_density(generic_m2, grid_frequencies(L, M)).astype(complex)
        want = amps
        for _ in range(20):
            want = _padded_rk4_step(want, dt, L)
        got = integrate(GridState(L, M, amps, 0.0), 20 * dt, dt).amps
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(want - amps)) > 1e-3 * np.max(np.abs(amps))

    def test_integrate_leaves_input_unchanged(self, generic_m2):
        # compare() reads g0 after integrating it, for the mass drift
        g0 = sample_to_grid(generic_m2, 100.0, 2**12)
        before = g0.amps.tobytes()
        gt = integrate(g0, 0.02, 1e-3)
        assert g0.amps.tobytes() == before
        assert not np.shares_memory(gt.amps, g0.amps)
        assert not np.shares_memory(integrate(g0, 0.0, 1e-3).amps, g0.amps)

    @pytest.mark.parametrize("t", [0.02, -0.02])
    def test_integrate_equals_steps(self, generic_m2, t):
        g0 = sample_to_grid(generic_m2, 100.0, 2**12)
        g = g0
        for _ in range(20):
            g = step(g, math.copysign(1e-3, t))
        got = integrate(g0, t, 1e-3)
        assert got.amps.tobytes() == g.amps.tobytes()
        assert got.time == g.time

    def test_interleaved_grids(self, soliton_symbol, generic_m2):
        grids = [sample_to_grid(generic_m2, 100.0, 2**12),
                 sample_to_grid(soliton_symbol, 55.0, 2**11)]
        alone = [integrate(g, 0.03, 1e-3) for g in grids]
        for t in (0.01, 0.02, 0.03):
            grids = [integrate(g, t, 1e-3) for g in grids]
        for g, want in zip(grids, alone):
            assert g.amps.tobytes() == want.amps.tobytes()

    def test_compare_leaves_scipy_out(self):
        # the oracle's transforms are numpy's: scipy.fft would be a
        # dependency the library does not declare
        src = os.path.dirname(os.path.dirname(szego.__file__))
        code = (
            "import sys, szego\n"
            "u = szego.hardy_from_terms([(-1j, [1.0])])\n"
            "rep = szego.compare(u, 0.01, 100.0, 2**12, 1e-3)\n"
            "print(rep['l2_error'] < 1e-5,\n"
            "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["True", "False"]


class TestSelfConvergence:
    def test_fourth_order(self, soliton_symbol):
        sc = self_convergence(soliton_symbol, 1.0, 100.0, 2**12, 0.04)
        assert 3.5 < sc["order"] < 4.5

    def test_zero_symbol(self):
        with pytest.raises(PreconditionError, match="zero symbol"):
            self_convergence(zero(), 1.0, 50.0, 2**8, 0.04)

    def test_zero_difference(self, soliton_symbol):
        # no time elapses, so both halving differences are exactly 0
        with pytest.raises(PreconditionError, match="order undefined"):
            self_convergence(soliton_symbol, 0.0, 100.0, 2**12, 0.04)


class TestEdgeMassFraction:
    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.5, 2.0, float("nan")])
    def test_fraction_out_of_range(self, soliton_symbol, frac):
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        with pytest.raises(InputError, match="edge fraction"):
            edge_mass_fraction(g, frac)

    def test_whole_box(self, soliton_symbol):
        # frac = 1 selects every grid point, x = 0 (the soliton's peak) included
        g = sample_to_grid(soliton_symbol, 100.0, 2**12)
        assert abs(edge_mass_fraction(g, 1.0) - 1.0) <= 1e-15


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
