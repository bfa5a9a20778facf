import math

import mpmath as mp
import numpy as np
import pytest

from szego import asymptotics, rational
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
    _from_flat,
    hardy_from_terms,
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

    @pytest.mark.parametrize("mu", (1e3, 1e6))
    def test_scaled_single_soliton_zero_remainder(self, mu):
        # mu u(mu^2 t): the remainder, 4.9e-13 at mu = 1e3 and 5.1e-10 at 1e6, is about
        # 2.8e-16 of ||u0||, as at mu = 1; an absolute floor fitted it to -0.051 and +0.045
        rep = remainder_norms(simple_pole(mu, -1j), np.geomspace(1, 50, 6) / mu**2, [0.0, 1.0])
        assert rep.exponents == (float("-inf"), float("-inf"))

    def test_small_amplitude_remainder_decays_as_at_amplitude_one(self):
        # 1e-11 u(1e-22 t): every remainder is below 7.2e-14, yet the same share of u0 as
        # at amplitude one, so it decays at the same rate; an absolute floor made it -inf
        terms = [(-1j, [1.0]), (0.8 - 0.7j, [0.5 + 0.3j])]
        small = hardy_from_terms([(p, [1e-11 * c for c in cs]) for p, cs in terms])
        times = np.geomspace(1e2, 1e4, 41)
        rep = remainder_norms(small, times * 1e22, [0.0])
        assert np.max(rep.norms) < 7.2e-14
        assert rep.exponents[0] == pytest.approx(-1.0003, abs=1e-4)
        want = remainder_norms(hardy_from_terms(terms), times, [0.0]).exponents[0]
        assert rep.exponents[0] == pytest.approx(want, rel=1e-6)

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

    def test_one_repeated_time_fails_closed(self, generic_m2):
        # six samples at one |t| fitted a NaN exponent
        with pytest.raises(PreconditionError, match="two distinct"):
            remainder_norms(generic_m2, [3.0] * 6, [0.0])


class TestStackedOverTime:
    """The remainder and growth routes build every time's symbol in stacks."""

    @pytest.mark.parametrize("run", ("remainder_norms", "growth_fit"))
    def test_no_per_time_canonical_call(self, monkeypatch, generic_m2, run):
        # 41 and 17 times, as the benchmark asks them, on strongly generic data: every
        # bilinear row, and every remainder, comes from `_canonical_rows`' array path
        calls = []
        inner = rational._canonical
        monkeypatch.setattr(rational, "_canonical",
                            lambda *args: calls.append(args) or inner(*args))
        if run == "remainder_norms":
            rep = remainder_norms(generic_m2, np.geomspace(1e2, 1e4, 41), [0.0, 0.5, 1.0])
            assert rep.norms.shape == (41, 3)
        else:
            fit = growth_fit(generic_m2, 1.0, np.geomspace(1e2, 1e4, 17))
            assert len(fit["norms"]) == 17
        assert calls == []

    def test_odd_rows_are_merged_on_their_own(self, generic_m2):
        # a row without N simple poles (here the symbol itself, doubled at t = 0) still
        # subtracts the solitons, by the one-row merge
        sols = soliton_params_from_spectrum(eigendecompose(generic_m2))
        odd = _from_flat((0, 1), [-1j, -1j], [1.0, 0.5])
        got = asymptotics._minus_solitons([generic_m2, odd], sols, [0.0, 0.0])
        each = [soliton_term(sp, 0.0) for sp in sols]
        for u, g in zip((generic_m2, odd), got):
            want = u - each[0] - each[1]
            xs = np.linspace(-3, 3, 13)
            assert np.abs(g.evaluate(xs) - want.evaluate(xs)).max() <= 1e-14


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

    def test_track_exact_to_rounding_up_to_1e9(self, double_eig_symbol):
        # Im E_2 ~ 13.5/t^2 against the 60-digit eigenvalue of the same stored
        # S(t) = [[c1 + A t, d1], [c2, d2]], where (tr - root)/2 would cancel
        rep = nongeneric_analysis(double_eig_symbol, times=np.geomspace(1e2, 1e9, 8))
        (c1, d1), (c2, d2) = eigendecompose(double_eig_symbol).shift
        with mp.workdps(60):
            for t, e2 in zip(rep.times, rep.e2_track):
                S = mp.matrix([[mp.mpc(c1) + mp.mpf(rep.drift_a) * mp.mpf(t), mp.mpc(d1)],
                               [mp.mpc(c2), mp.mpc(d2)]])
                want = min(mp.eig(S, left=False, right=False), key=lambda z: abs(z - e2))
                assert abs(e2.imag - want.imag) <= 1e-13 * abs(want.imag)
        rep = nongeneric_analysis(double_eig_symbol, times=np.geomspace(1e6, 1e8, 9))
        assert abs(rep.e2_imag_exponent + 2.0) < 1e-6

    def test_generic_input_rejected(self, generic_m2):
        with pytest.raises(PreconditionError, match="double eigenvalue"):
            nongeneric_analysis(generic_m2)

    def test_track_checked_against_every_flow_matrix(self, monkeypatch, double_eig_symbol):
        # one S(t) of the stack moved off the closed-form track fails the
        # analysis, also under x -> 1e4 x: there the track lies at |e1| <= 0.7,
        # where a floor at |e1| = 1 let a move of 5e-6 max|S| (7e-7) pass
        layout, poles, coeffs = double_eig_symbol._flat
        exact = asymptotics._s_stack
        times = np.geomspace(1e2, 1e4, 7)
        for lam, size in ((1.0, 1e-3), (1e4, 5e-6)):
            u = _from_flat(layout, poles / lam, coeffs / lam ** np.add(layout, 1))

            def moved(dec, ts, size=size):
                S = exact(dec, ts)
                S[4] += size * abs(S[4]).max() * np.eye(2)
                return S

            nongeneric_analysis(u, times)
            with monkeypatch.context() as m:
                m.setattr(asymptotics, "_s_stack", moved)
                with pytest.raises(PreconditionError, match="disagrees with S"):
                    nongeneric_analysis(u, times)

    @pytest.mark.parametrize("times", ([], [5.0], [0.0, 1.0, 2.0, 3.0, 4.0]))
    def test_degenerate_times_fail_closed(self, double_eig_symbol, times):
        # no times, one time or a time at 0 fitted a NaN exponent
        with pytest.raises(PreconditionError, match="power-law fit"):
            nongeneric_analysis(double_eig_symbol, times=times)


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

    @pytest.mark.parametrize("times", ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [3.0] * 6))
    def test_degenerate_times_fail_closed(self, double_eig_symbol, times):
        # a time at 0, or one |t| for every sample, fitted a NaN slope
        with pytest.raises(PreconditionError, match="power-law fit"):
            growth_fit(double_eig_symbol, 1.0, times)

    def test_many_s_are_the_one_s_fits(self, double_eig_symbol, mixed_mult):
        # one recovery and one norm call for every s; each fit is the one-s call's, bitwise
        times = np.geomspace(1e2, 1e4, 9)
        for u in (double_eig_symbol, mixed_mult):
            fits = asymptotics._growth_fits(u, (0.75, 1.0, 2.0), times)
            assert fits == [growth_fit(u, s, times) for s in (0.75, 1.0, 2.0)]

    def test_fit_power_law_exact_line(self):
        ts = np.geomspace(1, 100, 20)
        slope, intercept = fit_power_law(ts, 3.0 * ts**-1.7)
        assert abs(slope + 1.7) < 1e-12
        assert abs(intercept - math.log(3.0)) < 1e-12

    @pytest.mark.parametrize("times,values", [
        ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
        ([1.0, -1.0, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ])
    def test_fit_power_law_fails_closed(self, times, values):
        with pytest.raises(PreconditionError, match="power-law fit"):
            fit_power_law(times, values)
