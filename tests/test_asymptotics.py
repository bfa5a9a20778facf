import math

import numpy as np
import pytest

from szego import asymptotics
from szego.asymptotics import (
    fit_power_law,
    growth_fit,
    nongeneric_analysis,
    remainder_norms,
    soliton_params_from_spectrum,
    soliton_term,
)
from szego.errors import PreconditionError
from szego.flow import recover_rational
from szego.hankel import eigendecompose
from szego.rational import (
    homogeneous_sobolev_norm,
    l2_norm,
    simple_pole,
)
from szego.sampling import random_strongly_generic


class TestSolitonParams:
    def test_rank_one_channel(self, soliton_symbol):
        (sp,) = soliton_params_from_spectrum(eigendecompose(soliton_symbol))
        assert abs(abs(sp.amplitude) - 1.0) < 1e-12
        assert abs(sp.pole + 1j) < 1e-12
        assert abs(sp.speed - 0.5) < 1e-12
        assert abs(sp.frequency - 0.25) < 1e-12

    def test_traveling_wave_invariants(self):
        rng = np.random.default_rng(21)
        u = random_strongly_generic(2, rng)
        for sp in soliton_params_from_spectrum(eigendecompose(u)):
            assert abs(sp.frequency
                       - abs(sp.amplitude) ** 2 / (4 * sp.pole.imag**2)) < 1e-10
            assert abs(sp.speed
                       - abs(sp.amplitude) ** 2 / (-2 * sp.pole.imag)) < 1e-10

    def test_speeds_sorted_with_channels(self):
        rng = np.random.default_rng(22)
        u = random_strongly_generic(3, rng)
        dec = eigendecompose(u)
        sols = soliton_params_from_spectrum(dec)
        want = dec.lambdas**2 * dec.nus**2 / (2 * math.pi)
        assert np.allclose([sp.speed for sp in sols], want)
        assert len({round(sp.speed, 9) for sp in sols}) == 3

    def test_nongeneric_rejected(self, double_eig_symbol):
        with pytest.raises(PreconditionError, match="strongly generic"):
            soliton_params_from_spectrum(eigendecompose(double_eig_symbol))


class TestExactSolitonPropagation:
    def test_random_amplitude_and_pole(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            C = complex(rng.normal(), rng.normal())
            p = complex(rng.uniform(-2, 2), -rng.uniform(0.3, 2.0))
            u = simple_pole(C, p)
            dec = eigendecompose(u)
            om = abs(C) ** 2 / (4 * p.imag**2)
            c = abs(C) ** 2 / (-2 * p.imag)
            for t in rng.uniform(-9, 9, 3):
                ut = recover_rational(dec, float(t))
                assert abs(ut.terms[0].pole - (p + c * t)) < 1e-10
                assert abs(ut.terms[0].coeffs[0] - C * np.exp(-1j * om * t)) < 1e-10


class TestRemainderNorms:
    def test_single_soliton_zero_remainder(self, soliton_symbol):
        rep = remainder_norms(soliton_symbol, np.geomspace(1, 50, 6), [0.0, 1.0])
        assert np.max(rep.norms) < 1e-13
        assert rep.exponents[0] == float("-inf")

    def test_decay_exponents_two_channels(self):
        rng = np.random.default_rng(24)
        u = random_strongly_generic(2, rng)
        times = np.geomspace(1e2, 1e4, 101)
        rep = remainder_norms(u, times, [0.0, 0.5, 1.0])
        assert rep.direction == "forward"
        for e in rep.exponents:
            assert -1.15 < e < -0.85

    def test_backward_direction(self):
        rng = np.random.default_rng(25)
        u = random_strongly_generic(2, rng)
        rep = remainder_norms(u, -np.geomspace(1e2, 1e4, 51), [0.0])
        assert rep.direction == "backward"
        assert -1.2 < rep.exponents[0] < -0.8

    def test_mass_splits_across_solitons(self):
        rng = np.random.default_rng(26)
        u = random_strongly_generic(2, rng)
        sols = soliton_params_from_spectrum(eigendecompose(u))
        total = l2_norm(u) ** 2
        parts = sum(
            abs(sp.amplitude) ** 2 * math.pi / (-sp.pole.imag) for sp in sols
        )
        assert abs(total - parts) < 1e-10 * total

    def test_time_validation(self, soliton_symbol):
        with pytest.raises(PreconditionError):
            remainder_norms(soliton_symbol, [0.0, 1.0], [0.0])
        with pytest.raises(PreconditionError):
            remainder_norms(soliton_symbol, [-1.0, 1.0, 2.0, 3.0, 4.0], [0.0])
        with pytest.raises(PreconditionError, match="insufficient"):
            remainder_norms(soliton_symbol, [1.0, 2.0], [0.0])


class TestNonGenericAnalysis:
    def test_reference_constants(self, double_eig_symbol):
        rep = nongeneric_analysis(double_eig_symbol)
        assert abs(rep.eigenvalue - 1.0 / 9.0) < 1e-12
        assert abs(rep.disc_b.imag - 4.0) < 1e-10

    def test_limiting_soliton(self, double_eig_symbol):
        rep = nongeneric_analysis(double_eig_symbol)
        mass = l2_norm(double_eig_symbol) ** 2
        assert abs(rep.soliton.speed - mass / (2 * math.pi)) < 1e-9
        want_amp = mass / (math.sqrt(math.pi)
                           * homogeneous_sobolev_norm(double_eig_symbol, 0.5))
        assert abs(abs(rep.soliton.amplitude) - want_amp) < 1e-9
        assert abs(rep.soliton.pole.imag + 3.0) < 1e-10

    def test_eigenvalue_track_dichotomy(self, double_eig_symbol):
        rep = nongeneric_analysis(double_eig_symbol)
        assert abs(rep.e2_imag_exponent + 2.0) < 0.2
        assert abs(rep.e1_track[-1].imag - 3.0) < 1e-5

    def test_generic_input_rejected(self, generic_m2):
        with pytest.raises(PreconditionError, match="double eigenvalue"):
            nongeneric_analysis(generic_m2)

    def test_track_checked_against_every_flow_matrix(self, monkeypatch, double_eig_symbol):
        # one S(t) of the stack moved off the closed-form track fails the analysis
        exact = asymptotics._s_stack
        times = np.geomspace(1e2, 1e4, 7)

        def moved(dec, ts):
            S = exact(dec, ts)
            S[4] += 1e-3 * abs(S[4]).max() * np.eye(2)
            return S

        nongeneric_analysis(double_eig_symbol, times)
        monkeypatch.setattr(asymptotics, "_s_stack", moved)
        with pytest.raises(PreconditionError, match="disagrees with S"):
            nongeneric_analysis(double_eig_symbol, times)


class TestGrowthFit:
    @pytest.mark.parametrize("s,want,tol", [
        (1.0, 1.0, 0.05),
        (0.75, 0.5, 0.05),
        (0.5, 0.0, 0.02),
    ])
    def test_slopes(self, double_eig_symbol, s, want, tol):
        g = growth_fit(double_eig_symbol, s, np.geomspace(1e2, 1e4, 17))
        assert abs(g["slope"] - want) < tol
        assert g["h_half_drift"] < 1e-8

    def test_sample_validation(self, double_eig_symbol):
        with pytest.raises(PreconditionError, match="insufficient"):
            growth_fit(double_eig_symbol, 1.0, [1.0, 2.0])

    def test_fit_power_law_exact_line(self):
        ts = np.geomspace(1, 100, 20)
        slope, intercept = fit_power_law(ts, 3.0 * ts**-1.7)
        assert abs(slope + 1.7) < 1e-12
        assert abs(intercept - math.log(3.0)) < 1e-12
