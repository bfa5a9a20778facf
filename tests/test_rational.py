import itertools
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import szego
from szego import rational
from szego.errors import InputError, NumericalError, PreconditionError
from szego.rational import (
    COEFF_TRIM_RTOL,
    DEGREE_CAP,
    POLE_MERGE_RTOL,
    PoleTerm,
    HardyRational,
    _sobolev_norms,
    RationalFn,
    _fourier_arrays,
    _from_flat,
    _g_coeffs,
    as_hardy,
    blaschke,
    fn_integral,
    from_json_dict,
    from_terms,
    h_half_norm,
    hankel_apply,
    hardy_from_terms,
    homogeneous_sobolev_norm,
    inner_product,
    l2_norm,
    lambda_functional,
    load_symbol,
    pf_from_ratio,
    simple_pole,
    spectral_density,
    symplectic_form,
    szego_project,
    to_json_dict,
    zero,
)

from conftest import quad_inner, quad_line


G_CHECKED = ("soliton_symbol", "generic_m2", "mixed_mult", "eight_poles", "triple_pole")


@pytest.fixture
def triple_pole():
    return hardy_from_terms([(-1j, [0.0, 0.0, 1.0])])


def mp_g_laurent(u, dps=40, points=128):
    """Coefficients of 1 - b_u on 1/(x-p)^l by the Cauchy integral
    integral of (1 - b_u(x)) (x-p)^(l-1) dx / (2 pi i), trapezoid rule on a circle
    around each pole at 0.4 of the distance to the nearest other singularity.
    """
    with mpmath.workdps(dps):
        poles = [mpmath.mpc(t.pole) for t in u.terms]
        sing = poles + [mpmath.conj(p) for p in poles]

        def b(x):
            out = mpmath.mpf(1)
            for q, t in zip(poles, u.terms):
                out *= ((x - mpmath.conj(q)) / (x - q)) ** t.multiplicity
            return out

        want = []
        for p, t in zip(poles, u.terms):
            r = 0.4 * min(abs(p - q) for q in sing if q != p)
            ys = [r * mpmath.expj(2 * mpmath.pi * k / points) for k in range(points)]
            vals = [1 - b(p + y) for y in ys]
            for l in range(1, t.multiplicity + 1):
                want.append(complex(sum(v * y**l for v, y in zip(vals, ys)) / points))
        return np.array(want)


def terms_dict(f):
    return {t.pole: t.coeffs for t in f.terms}


class TestPfFromRatio:
    def test_simple_fraction(self):
        r = pf_from_ratio([1.0], [1j, 1.0])
        assert len(r.terms) == 1
        assert abs(r.terms[0].pole + 1j) < 1e-14
        assert abs(r.terms[0].coeffs[0] - 1.0) < 1e-14

    def test_two_poles(self):
        # (2(x+2i) - 4(x+i)) / ((x+i)(x+2i)) = 2/(x+i) - 4/(x+2i)
        num = [2 * 2j - 4 * 1j, 2.0 - 4.0]
        den = [(1j) * (2j), 3j, 1.0]
        r = pf_from_ratio(num, den)
        d = terms_dict(r)
        (pa, pb) = sorted(d, key=lambda p: p.imag, reverse=True)
        assert abs(pa + 1j) < 1e-9 and abs(d[pa][0] - 2.0) < 1e-9
        assert abs(pb + 2j) < 1e-9 and abs(d[pb][0] + 4.0) < 1e-9

    def test_double_root(self):
        r = pf_from_ratio([1.0], [-1.0, 2j, 1.0])  # 1/(x+i)^2
        assert len(r.terms) == 1
        t = r.terms[0]
        assert t.multiplicity == 2
        assert abs(t.coeffs[0]) < 1e-9 and abs(t.coeffs[1] - 1.0) < 1e-7
        # 1/(x+i)^3 and 1/((x+i)^2 (x+2i)^3): every multiple root is one pole;
        # so is (x+i)^m for m = 4, 5, 6, alone and beside (x+2i)^2
        xs = np.linspace(-5.0, 5.0, 21)
        high = [case for m in (4, 5, 6)
                for case in (([-1j] * m, [m]), ([-1j] * m + [-2j] * 2, [m, 2]))]
        # with a constant numerator and with one of full degree deg B - 1
        for roots, mults in (([-1j] * 3, [3]), ([-1j] * 2 + [-2j] * 3, [2, 3]), *high):
            den = np.polynomial.polynomial.polyfromroots(roots)
            for num in ([1.0], np.linspace(1.0, 2.0, len(roots)) + 0.5j):
                r = pf_from_ratio(num, den)
                terms = sorted(r.terms, key=lambda t: -t.pole.imag)
                assert [t.multiplicity for t in terms] == mults
                assert max(abs(t.pole - p) for t, p in zip(terms, [-1j, -2j])) < 1e-9
                want = (np.polynomial.polynomial.polyval(xs, num)
                        / np.polynomial.polynomial.polyval(xs, den))
                assert np.max(np.abs(r.evaluate(xs) - want)) < 1e-9 * np.max(np.abs(want))

    def test_roundtrip_random_points(self):
        rng = np.random.default_rng(0)
        num = [0.3 + 0.2j, 1.1 - 0.4j, 0.7]
        roots = [-1j, -0.5 - 0.7j, 1.2 - 1.5j]
        den = np.polynomial.polynomial.polyfromroots(roots)
        r = pf_from_ratio(num, den)
        xs = rng.uniform(-5.0, 5.0, 20)
        want = np.polyval(num[::-1], xs) / np.polyval(den[::-1], xs)
        assert np.max(np.abs(r.evaluate(xs) - want) / np.abs(want)) < 1e-10

    def test_pole_above_line_rejected(self):
        with pytest.raises(InputError, match="pole on or above real line"):
            pf_from_ratio([1.0], [-1j, 1.0])

    def test_common_factor_rejected(self):
        with pytest.raises(InputError, match="non-reduced fraction"):
            pf_from_ratio([1j, 1.0], [-2.0, 3j, 1.0])

    def test_common_factor_of_a_triple_root_rejected(self):
        # (x+i)/(x+i)^3: tested at the group's center, where the raw roots'
        # scatter of about 1e-5 would hide the common factor
        with pytest.raises(InputError, match="non-reduced fraction"):
            pf_from_ratio([1j, 1.0], np.polynomial.polynomial.polyfromroots([-1j] * 3))

    @pytest.mark.parametrize("name", ("soliton_symbol", "generic_m2",
                                      "double_eig_symbol", "mixed_mult"))
    def test_symbol_roundtrip(self, name, request):
        u = request.getfixturevalue(name)
        P = np.polynomial.polynomial
        roots = [t.pole for t in u.terms for _ in t.coeffs]
        den = P.polyfromroots(roots)
        num = np.zeros(1)        # A = sum c_(j,l) B / (x - p_j)^l
        for t in u.terms:
            others = [q for q in roots if q != t.pole]
            for l, c in enumerate(t.coeffs, start=1):
                num = P.polyadd(num, c * P.polyfromroots(others + [t.pole] * (t.multiplicity - l)))
        r = pf_from_ratio(num, den)
        assert [t.multiplicity for t in r.terms] == [t.multiplicity for t in u.terms]
        xs = np.linspace(-5.0, 5.0, 41)
        want = u.evaluate(xs)
        assert np.max(np.abs(r.evaluate(xs) - want)) < 1e-10 * np.max(np.abs(want))

    def test_degree_rule(self):
        with pytest.raises(InputError):
            pf_from_ratio([1.0, 2.0], [1j, 1.0])

    @staticmethod
    def random_ratio(degree, seed=0):
        """Roots uniform in [-3, 3] x [-3, -0.5]i and a random numerator."""
        rng = np.random.default_rng(seed)
        roots = rng.uniform(-3, 3, degree) + 1j * rng.uniform(-3, -0.5, degree)
        num = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        return num, np.polynomial.polynomial.polyfromroots(roots)

    @staticmethod
    def assert_kept_whole(r, num, den):
        """r keeps all deg B poles and meets A/B to 1e-8 of its largest value on [-5, 5]."""
        xs = np.linspace(-5.0, 5.0, 41)
        want = (np.polynomial.polynomial.polyval(xs, num)
                / np.polynomial.polynomial.polyval(xs, den))
        assert len(r.poles()) == r.degree == len(den) - 1
        assert np.max(np.abs(r.evaluate(xs) - want)) < 1e-8 * np.max(np.abs(want))

    def test_degree_16_kept_whole(self):
        num, den = self.random_ratio(16)
        self.assert_kept_whole(pf_from_ratio(num, den), num, den)

    def test_degree_20_kept_whole_on_every_seed(self):
        for seed in range(10):
            num, den = self.random_ratio(20, seed)
            self.assert_kept_whole(pf_from_ratio(num, den), num, den)

    @pytest.mark.parametrize("degree", (24, 32, 48, DEGREE_CAP))
    def test_kept_whole_or_fails_closed_up_to_the_cap(self, degree):
        for seed in range(10):
            num, den = self.random_ratio(degree, seed)
            try:
                r = pf_from_ratio(num, den)
            except NumericalError as err:
                assert f"inaccurate at degree {degree}" in str(err), seed
                continue
            self.assert_kept_whole(r, num, den)

    def test_degree_40_fails_closed(self):
        # unchecked, poles were trimmed and A/B missed by 7e-7 with no error
        with pytest.raises(NumericalError, match="inaccurate at degree 40"):
            pf_from_ratio(*self.random_ratio(40))


NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, -1.0))


class TestNonFinite:
    """A non-finite pole or coefficient is an InputError wherever a symbol is built."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_hardy_from_terms_coefficient(self, bad):
        # unchecked, one infinite coefficient makes the trim floor infinite
        # and the result the zero symbol
        with pytest.raises(InputError, match="finite"):
            hardy_from_terms([(-1j, [bad]), (1 - 1j, [1.0])])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_hardy_from_terms_pole(self, bad):
        with pytest.raises(InputError, match="finite"):
            hardy_from_terms([(complex(0.5, -1.0) + bad, [1.0])])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_simple_pole(self, bad):
        with pytest.raises(InputError, match="finite"):
            simple_pole(bad, -1j)
        with pytest.raises(InputError, match="finite"):
            simple_pole(1.0, -1j + bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_scale(self, bad):
        # unchecked, a * u re-wraps a * coeffs: a NaN or infinite coefficient
        u = simple_pole(1.0, -1j)
        for scaled in (lambda: bad * u, lambda: u * bad, lambda: u.scale(bad)):
            with pytest.raises(InputError, match="finite"):
                scaled()

    @pytest.mark.parametrize("a", (1e308, -1e308, complex(1e308, 1e308)))
    def test_scale_overflow(self, a):
        # the product overflows to inf without a RuntimeWarning, which pytest raises
        with pytest.raises(InputError, match="finite"):
            a * simple_pole(10.0, -1j)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_from_json_dict(self, bad):
        with pytest.raises(InputError, match="finite"):
            from_json_dict({"terms": [{"pole": [0.0, -1.0], "coeffs": [[bad, 0.0]]}]})
        with pytest.raises(InputError, match="finite"):
            from_json_dict({"terms": [{"pole": [bad, -1.0], "coeffs": [[1.0, 0.0]]}]})

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pf_from_ratio(self, bad):
        with pytest.raises(InputError, match="finite"):
            pf_from_ratio([bad], [1j, 1.0])
        with pytest.raises(InputError, match="finite"):
            pf_from_ratio([1.0], [1j, bad, 1.0])


class TestProjector:
    def test_residue_split(self, soliton_symbol):
        f = soliton_symbol
        q = f * f.conj_reflect()  # 1/((x+i)(x-i))
        pr = szego_project(q)
        d = terms_dict(pr)
        assert set(d) == {-1j}
        assert abs(d[-1j][0] - 0.5j) < 1e-14

    def test_hardy_fixed_and_antihardy_killed(self, soliton_symbol):
        f = soliton_symbol
        assert szego_project(as_hardy(f)).terms == f.terms
        anti = RationalFn(f.conj_reflect().terms)
        assert szego_project(anti).is_zero()

    def test_idempotent(self, generic_m2):
        q = generic_m2 * generic_m2.conj_reflect()
        once = szego_project(q)
        twice = szego_project(RationalFn(once.terms))
        assert once.terms == twice.terms

    def test_decomposition_completeness(self, generic_m2):
        # f = P(f) + conj(P(conj f)) pointwise
        rng = np.random.default_rng(1)
        f = generic_m2 * generic_m2.conj_reflect()
        plus = szego_project(f)
        minus = szego_project(f.conj_reflect())
        xs = rng.uniform(-10, 10, 50)
        lhs = f.evaluate(xs)
        rhs = plus.evaluate(xs) + np.conj(minus.evaluate(xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_cauchy_integral_oracle(self, generic_m2):
        # P(q)(z) = (1/2 pi i) int q(x)/(x - z) dx for Im z > 0
        q = generic_m2 * generic_m2.conj_reflect()
        pr = szego_project(q)
        for z in (0.3 + 0.8j, -1.1 + 0.5j):
            got = quad_line(lambda x: q.evaluate(x) / (x - z)) / (2j * np.pi)
            assert abs(got - pr.evaluate(z)) < 1e-9


class TestHankelApply:
    def test_rank_one(self, soliton_symbol):
        f = soliton_symbol
        h = hankel_apply(f, f)
        assert abs(terms_dict(h)[-1j][0] - 0.5j) < 1e-14

    def test_zero_argument(self, soliton_symbol):
        assert hankel_apply(soliton_symbol, zero()).is_zero()

    def test_cross_pole(self, soliton_symbol):
        h = hankel_apply(soliton_symbol, simple_pole(1.0, -2j))
        assert abs(terms_dict(h)[-1j][0] - 1j / 3) < 1e-14

    def test_quadrature_twin(self, generic_m2):
        h = simple_pole(0.7 - 0.2j, -0.4 - 1.1j)
        got = hankel_apply(generic_m2, h)
        q = generic_m2 * h.conj_reflect()
        for z in (0.2 + 0.6j, 1.5 + 0.3j):
            want = quad_line(lambda x: q.evaluate(x) / (x - z)) / (2j * np.pi)
            assert abs(got.evaluate(z) - want) < 1e-9

    def test_symmetry(self, generic_m2):
        h1 = simple_pole(1.0, -0.5 - 0.9j)
        h2 = simple_pole(0.3 + 1.0j, 0.4 - 1.3j)
        a = inner_product(hankel_apply(generic_m2, h1), h2)
        b = inner_product(hankel_apply(generic_m2, h2), h1)
        assert abs(a - b) < 1e-12


class TestLambdaFunctional:
    def test_values(self, soliton_symbol, double_eig_symbol):
        assert abs(lambda_functional(soliton_symbol) - 1.0) < 1e-15
        dbl = hardy_from_terms([(-1j, [0.0, 1.0])])
        assert lambda_functional(dbl) == 0.0
        assert abs(lambda_functional(double_eig_symbol) + 2.0) < 1e-15

    def test_limit_consistency(self, generic_m2):
        R = 1e6
        want = R * generic_m2.evaluate(R)
        got = lambda_functional(generic_m2)
        assert abs(got - want) / abs(got) < 1e-6


class TestInnerProduct:
    def test_arctan_integral(self, soliton_symbol):
        assert abs(inner_product(soliton_symbol, soliton_symbol) - np.pi) < 1e-14

    def test_kernel_orthogonal_to_range(self, soliton_symbol):
        # (g-ish element, b_u * h) = 0:  b_u h = (x-i)/(x+i)^2
        bh = hardy_from_terms([(-1j, [1.0, -2j])])
        assert abs(inner_product(soliton_symbol, bh)) < 1e-14

    def test_zero(self):
        assert inner_product(zero(), zero()) == 0

    def test_conjugate_symmetry(self, generic_m2):
        h = simple_pole(0.3 - 1.2j, 0.9 - 0.8j)
        assert abs(inner_product(generic_m2, h)
                   - np.conj(inner_product(h, generic_m2))) < 1e-14

    def test_quadrature_agreement(self, double_eig_symbol, generic_m2):
        got = inner_product(double_eig_symbol, generic_m2)
        want = quad_inner(double_eig_symbol, generic_m2)
        assert abs(got - want) / abs(want) < 1e-9

    def test_real_pole_rejected(self):
        f = RationalFn(())
        bad = from_terms([(0.5, [1.0])])
        with pytest.raises(PreconditionError, match="non-integrable"):
            fn_integral(bad * bad)

    @pytest.mark.parametrize("amp", [10.0**k for k in range(-9, 10, 3)])
    def test_integrability_at_every_amplitude(self, generic_m2, amp):
        # the 1/x tail is judged against f's own coefficients, so a small
        # non-integrable f raises as a unit one does
        with pytest.raises(PreconditionError, match="non-integrable"):
            fn_integral(simple_pole(amp, -1j))
        h = simple_pole(0.4 + 0.9j, 1.0 - 0.8j)
        want = amp * fn_integral(generic_m2 * h.conj_reflect())
        got = fn_integral(amp * generic_m2 * h.conj_reflect())
        assert abs(got - want) <= 1e-14 * abs(want)


class TestBlaschke:
    def test_rank_one(self, soliton_symbol):
        bd = blaschke(soliton_symbol)
        assert abs(terms_dict(bd.g)[-1j][0] - 2j) < 1e-14

    def test_coefficient_independence(self):
        for C in (1.0, -3.7, 2.0 - 1.0j):
            bd = blaschke(simple_pole(C, -1j))
            assert abs(terms_dict(bd.g)[-1j][0] - 2j) < 1e-12

    def test_two_pole_expansion(self, double_eig_symbol):
        bd = blaschke(double_eig_symbol)
        # g = 1 - b_u evaluated off the poles
        for x in (0.3, -2.4, 5.0):
            assert abs(bd.g.evaluate(x) - (1 - bd.evaluate_b(x))) < 1e-12

    def test_unimodular_on_line(self, double_eig_symbol):
        xs = np.linspace(-17.0, 23.0, 41)
        vals = blaschke(double_eig_symbol).evaluate_b(xs)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12

    def test_hankel_recovers_symbol(self, generic_m2):
        bd = blaschke(generic_m2)
        got = hankel_apply(generic_m2, bd.g)
        xs = np.linspace(-4, 4, 9)
        assert np.max(np.abs(got.evaluate(xs) - generic_m2.evaluate(xs))) < 1e-10

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError, match="zero symbol"):
            blaschke(zero())

    @pytest.mark.parametrize("amplitude", (1.0, 1e-9))
    def test_perturbed_coefficients_rejected(self, monkeypatch, generic_m2, amplitude):
        # the residual of H_u g = u is checked at the symbol's own scale
        exact = rational._g_coeffs
        monkeypatch.setattr(rational, "_g_coeffs", lambda u: exact(u) + 1e-6)
        with pytest.raises(NumericalError, match="Blaschke postcondition"):
            blaschke(as_hardy(amplitude * generic_m2))

    @pytest.mark.parametrize("name", G_CHECKED)
    def test_closed_form_matches_laurent_reference(self, name, request):
        u = request.getfixturevalue(name)
        got, want = _g_coeffs(u), mp_g_laurent(u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", G_CHECKED)
    def test_g_is_closed_form_by_pole(self, name, request):
        u = request.getfixturevalue(name)
        g = blaschke(u).g
        assert g.poles() == u.poles()
        flat = [c for t in g.terms for c in t.coeffs]
        assert np.array_equal(flat, _g_coeffs(u))


PRODUCT_SYMBOLS = ("soliton_symbol", "double_eig_symbol", "generic_m2", "mixed_mult", "eight_poles")


class TestProduct:
    xs = np.linspace(-6.0, 6.0, 61) + 0.05j   # just above the axis, off every pole

    def assert_pointwise(self, f, g):
        want = f.evaluate(self.xs) * g.evaluate(self.xs)
        got = (f * g).evaluate(self.xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("reflect", (False, True))
    @pytest.mark.parametrize("fname,gname", itertools.product(PRODUCT_SYMBOLS, repeat=2))
    def test_pointwise(self, fname, gname, reflect, request):
        f, g = request.getfixturevalue(fname), request.getfixturevalue(gname)
        self.assert_pointwise(f, g.conj_reflect() if reflect else g)

    def test_shared_poles_add_multiplicities(self, mixed_mult):
        sq = mixed_mult * mixed_mult
        assert sq.poles() == mixed_mult.poles()
        assert [t.multiplicity for t in sq.terms] == [2 * t.multiplicity for t in mixed_mult.terms]
        self.assert_pointwise(mixed_mult, mixed_mult)

    def test_poles_within_the_merge_tolerance_are_one_pole(self, generic_m2):
        p = generic_m2.terms[0].pole
        near = simple_pole(0.7 - 0.2j, p * (1.0 + 0.01 * POLE_MERGE_RTOL))
        prod = generic_m2 * near
        assert len(prod.terms) == 2 and prod.terms[0].pole == p
        assert prod.terms[0].multiplicity == 2
        self.assert_pointwise(generic_m2, near)

    def test_zero_and_scalar_factors(self, mixed_mult):
        assert (mixed_mult * zero()).is_zero() and (zero() * mixed_mult).is_zero()
        assert (mixed_mult * 2.5).terms == (2.5 * mixed_mult).terms == mixed_mult.scale(2.5).terms
        self.assert_pointwise(mixed_mult, simple_pole(2.5, -3j))


class TestFourier:
    def test_simple_pole_amplitude(self, soliton_symbol):
        amp, pole, power = _fourier_arrays(soliton_symbol)
        assert abs(amp[0] + 2j * np.pi) < 1e-14
        assert power.tolist() == [0] and pole.tolist() == [-1j]

    def test_double_pole_amplitude(self):
        # the vanishing 1/(x+i) entry has no term
        amp, _, power = _fourier_arrays(hardy_from_terms([(-1j, [0.0, 1.0])]))
        assert abs(amp[0] + 2 * np.pi) < 1e-14
        assert power.tolist() == [1]

    def test_zero(self):
        assert all(a.size == 0 for a in _fourier_arrays(zero()))

    def test_power_beyond_the_amplitude_table_fails_closed(self):
        # 1/(x + i)^171 has 170! in floats; 1/(x + i)^172 overflowed math.factorial's float
        top = hardy_from_terms([(-1j, [0.0] * 170 + [1.0])])
        assert np.isfinite(_fourier_arrays(top)[0]).all()
        with pytest.raises(NumericalError, match="beyond the float range"):
            spectral_density(hardy_from_terms([(-1j, [0.0] * 171 + [1.0])]), 1.0)

    def test_fft_consistency(self):
        # sampled midband transform of a 1/x^2-decaying combination
        f = hardy_from_terms([(-1j, [1.0]), (-0.3 - 1.4j, [-1.0])])
        assert abs(lambda_functional(f)) < 1e-14
        X, dx = 1e4, 0.05
        n = int(2 * X / dx)
        x = -X + dx * np.arange(n)
        vals = f.evaluate(x)
        spec = dx * np.exp(-1j * (-X) * 2 * np.pi * np.fft.fftfreq(n, d=dx)) \
            * np.fft.fft(vals)
        xi = 2 * np.pi * np.fft.fftfreq(n, d=dx)
        sel = (xi > 0.5) & (xi < 5.0)
        want = spectral_density(f, xi[sel])
        rel = np.abs(spec[sel] - want) / np.abs(want)
        assert np.max(rel) < 1e-6

    def test_symbol_transform_pairing(self, generic_m2):
        # closed-form u-hat(lam) equals (u, e^{i lam x} g), integrated on a
        # fine trapezoid grid; the by-parts boundary term caps the tail at
        # well under 1e-6 relative
        g = blaschke(generic_m2).g
        X = 300.0
        x = np.linspace(-X, X, 1_200_001)
        qv = generic_m2.evaluate(x) * np.conj(g.evaluate(x))
        for lam in np.linspace(0.4, 4.0, 10):
            want = np.trapezoid(qv * np.exp(-1j * lam * x), x)
            want += qv[-1] * np.exp(-1j * lam * X) / (1j * lam)
            want -= qv[0] * np.exp(1j * lam * X) / (1j * lam)
            got = spectral_density(generic_m2, lam)
            assert abs(got - want) / abs(got) < 1e-6

    @pytest.mark.parametrize("xi", (math.nan, math.inf, -math.inf, [0.5, math.nan]))
    def test_frequency_not_finite_rejected(self, xi, soliton_symbol):
        # nan read as nan+nanj, and inf warned "invalid value in multiply"
        with pytest.raises(InputError, match="frequency must be finite"):
            spectral_density(soliton_symbol, xi)

    def test_zero_below_the_origin(self):
        # the formula at xi < 0 grew like e^{|Im p| |xi|}: -46.43i at -2 for 1/(x + i)
        f = simple_pole(1.0, -1j)
        assert spectral_density(f, -2.0) == 0
        xi = np.array([-3.0, -1e-300, -0.0, 0.0, 0.5, 2.0])
        got = spectral_density(f, xi)
        assert (got[:2] == 0).all()
        assert (got[2:] == spectral_density(f, xi[2:])).all()
        assert (got[2:] == -2j * math.pi * np.exp(-xi[2:])).all()


class TestSobolev:
    def test_l2_matches(self, soliton_symbol):
        assert abs(homogeneous_sobolev_norm(soliton_symbol, 0.0)
                   - math.sqrt(math.pi)) < 1e-13

    def test_half_norm_value(self, soliton_symbol):
        assert abs(homogeneous_sobolev_norm(soliton_symbol, 0.5)
                   - math.sqrt(math.pi / 2)) < 1e-13

    def test_zero(self):
        assert homogeneous_sobolev_norm(zero(), 1.3) == 0.0

    def test_quadrature_agreement(self, double_eig_symbol, mixed_mult):
        s = 0.7
        for f in (double_eig_symbol, mixed_mult):
            want = quad(
                lambda xi: np.abs(spectral_density(f, xi)) ** 2
                * xi ** (2 * s) / (2 * np.pi),
                0.0, 80.0, limit=300,
            )[0]
            got = homogeneous_sobolev_norm(f, s)
            assert abs(got - math.sqrt(want)) / got < 1e-9

    @pytest.mark.parametrize("norm", (l2_norm, h_half_norm,
                                      lambda f: homogeneous_sobolev_norm(f, 1.0)))
    def test_pole_above_the_axis_rejected(self, norm):
        # 1/(x - i) read as 0.0 in L2 and 1.2533 in H^(1/2), and inf with a pole at -i
        # beside it; its L2 norm is sqrt(pi), by inner_product
        above = from_terms([(1j, [1.0])])
        assert inner_product(above, above).real == pytest.approx(math.pi)
        for f in (above, from_terms([(1j, [1.0]), (-1j, [1.0])])):
            with pytest.raises(PreconditionError, match="below the real line"):
                norm(f)

    def test_negative_s_rejected(self, soliton_symbol):
        with pytest.raises(PreconditionError):
            homogeneous_sobolev_norm(soliton_symbol, -0.5)

    @pytest.mark.parametrize("name", ("soliton_symbol", "generic_m2", "mixed_mult",
                                      "eight_poles"))
    def test_batched_norms_match_single_calls(self, name, request):
        f = request.getfixturevalue(name)
        ss = (0.0, 0.5, 1.0, 0.7, 2.5)
        for s, got in zip(ss, _sobolev_norms([f], ss)[0]):
            want = homogeneous_sobolev_norm(f, s)
            assert abs(got - want) <= 1e-13 * want


def sobolev_norms_one(f, ss):
    """The per-function Sobolev norms: the reference for the sequence form."""
    ss = np.asarray(ss, dtype=float)
    amp, pol, pw = _fourier_arrays(f)
    if not len(amp):
        return (0.0,) * len(ss)
    A = amp[:, None] * np.conj(amp[None, :])
    k = pw[:, None] + pw[None, :]
    gam = np.array([[math.gamma(2.0 * s + j + 1.0) for j in range(2 * pw.max() + 1)]
                    for s in ss])
    n = 2.0 * ss[:, None, None] + k
    c = 1j * (pol[:, None] - np.conj(pol[None, :]))
    total = np.sum(A * gam[:, k] / c ** (n + 1.0), axis=(1, 2))
    return tuple(math.sqrt(max(v, 0.0)) for v in total.real / (2.0 * math.pi))


class TestSobolevSequence:
    SS = (0.0, 0.5, 1.0, 0.7, 2.5)

    def test_mixed_layouts_in_one_call(self, soliton_symbol, generic_m2, mixed_mult,
                                       eight_poles, double_eig_symbol):
        fs = [soliton_symbol, mixed_mult, zero(), generic_m2, eight_poles,
              hardy_from_terms([(-0.5 - 1j, [0.2, 1.0]), (0.4 - 0.9j, [0.0, 0.3, 1.0])]),
              mixed_mult.scale(0.5), double_eig_symbol, zero(), soliton_symbol.scale(2j)]
        got = _sobolev_norms(fs, self.SS)
        assert got.shape == (len(fs), len(self.SS))
        for f, row in zip(fs, got):
            want = np.array(sobolev_norms_one(f, self.SS))
            assert np.all(np.abs(row - want) <= 1e-13 * want)

    def test_zero_and_empty(self):
        assert _sobolev_norms([zero(), zero()], (0.0, 1.0)).tolist() == [[0.0, 0.0]] * 2
        assert _sobolev_norms([], (0.0, 1.0)).shape == (0, 2)

    def test_s_zero_is_the_l2_norm(self, generic_m2, mixed_mult):
        got = _sobolev_norms([generic_m2, mixed_mult], (0.0,))[:, 0]
        want = [math.sqrt(inner_product(f, f).real) for f in (generic_m2, mixed_mult)]
        assert np.all(np.abs(got - want) <= 1e-12 * np.array(want))

    def test_negative_s_rejected(self, soliton_symbol):
        with pytest.raises(PreconditionError):
            _sobolev_norms([soliton_symbol], (0.0, -0.5))

    @pytest.mark.parametrize("s, error", ((math.nan, InputError), (math.inf, InputError),
                                          (-math.inf, InputError), (200.0, NumericalError)))
    @pytest.mark.parametrize("route", ("norm", "trajectory", "remainder_norms", "growth_fit"))
    def test_index_fails_closed(self, s, error, route, soliton_symbol, double_eig_symbol):
        # nan and inf read as nan with a warning, and Gamma(401) overflowed untyped; the
        # routes below reached `fit_power_law`'s error only after all their work
        from szego.asymptotics import growth_fit, remainder_norms
        from szego.flow import trajectory

        times = np.geomspace(1e2, 1e3, 5)
        call = {"norm": lambda: homogeneous_sobolev_norm(soliton_symbol, s),
                "trajectory": lambda: trajectory(soliton_symbol, [0.0, 1.0], hs=(s,)),
                "remainder_norms": lambda: remainder_norms(soliton_symbol, times, (s,)),
                "growth_fit": lambda: growth_fit(double_eig_symbol, s, times)}[route]
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("s, error", ((math.nan, InputError), (math.inf, InputError),
                                          (-1.0, PreconditionError)))
    @pytest.mark.parametrize("route", ("trajectory", "remainder_norms", "growth_fit"))
    def test_index_checked_before_any_decomposition(self, monkeypatch, s, error, route,
                                                    soliton_symbol, double_eig_symbol):
        # the index is read before u0 is decomposed and u(t) recovered, not after
        from szego import asymptotics, flow

        decomposed = []
        for mod in (flow, asymptotics):
            monkeypatch.setattr(mod, "eigendecompose", decomposed.append)
        times = np.geomspace(1e2, 1e3, 5)
        call = {"trajectory": lambda: flow.trajectory(soliton_symbol, [0.0, 1.0], hs=(s,)),
                "remainder_norms": lambda: asymptotics.remainder_norms(soliton_symbol,
                                                                       times, (s,)),
                "growth_fit": lambda: asymptotics.growth_fit(double_eig_symbol, s, times)}
        with pytest.raises(error, match="Sobolev index"):
            call[route]()
        assert decomposed == []

    def test_norm_beyond_the_float_range_fails_closed(self):
        # Gamma(161) is a float, but 1/0.02^161 is not
        with pytest.raises(NumericalError, match="beyond the float range"):
            homogeneous_sobolev_norm(simple_pole(1.0, -0.01j), 80.0)
        assert homogeneous_sobolev_norm(zero(), 200.0) == 0.0

    def test_stack_rows_match_one_function_calls(self, soliton_symbol, generic_m2,
                                                 double_eig_symbol, mixed_mult):
        # one padded (T, n) stack: a row of the largest degree sums the one-function
        # call's n x n block and is bitwise its value; a padded row sums zeros besides.
        # The remainders are of the largest degree, as in `remainder_norms`: padded, their
        # cancelling sums would be reordered and move at the cancellation's own scale
        from szego.asymptotics import _minus_solitons, soliton_params_from_spectrum
        from szego.flow import _recover_many
        from szego.hankel import eigendecompose
        from szego.sampling import random_strongly_generic

        dec = eigendecompose(random_strongly_generic(3, np.random.default_rng(1)))
        times = np.geomspace(1e2, 1e4, 7)
        eps = _minus_solitons(_recover_many(dec, times), soliton_params_from_spectrum(dec), times)
        fs = [soliton_symbol, generic_m2, zero(), double_eig_symbol, mixed_mult, *eps]
        n = max(f.degree for f in fs)
        got = _sobolev_norms(fs, self.SS)
        full = [f.degree == n for f in fs]
        assert 1 <= sum(full) < len(fs) - 1
        for f, row, top in zip(fs, got, full):
            want = _sobolev_norms([f], self.SS)[0]
            if top:
                assert row.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(row - want) <= 1e-15 * want)


class TestEvaluate:
    def test_values(self, soliton_symbol, double_eig_symbol):
        assert abs(soliton_symbol.evaluate(0.0) + 1j) < 1e-15
        assert abs(soliton_symbol.evaluate(1j) + 0.5j) < 1e-15
        assert abs(double_eig_symbol.evaluate(0.0)) < 1e-15

    def test_pole_rejected(self, soliton_symbol):
        with pytest.raises(InputError, match="evaluation at pole"):
            soliton_symbol.evaluate(-1j)

    @pytest.mark.parametrize("z", (math.inf, -math.inf, complex(0.0, math.inf),
                                   complex(math.inf, math.inf), math.nan,
                                   complex(0.0, math.nan)))
    def test_point_not_finite_rejected(self, soliton_symbol, z):
        # +-inf and i*inf read as 0j, and inf + i*inf and NaN as a pole
        want = re.escape(f"point must be finite, got {complex(z)}")
        for point in (z, np.array([0.0, z, math.nan])):
            with pytest.raises(InputError, match=want):
                soliton_symbol.evaluate(point)

    def test_near_a_dilated_pole(self):
        # 5e-15 from a pole at -1e-10i is 5e-5 |p| away: a value, not an error
        u = simple_pole(1.0, -1e-10j)
        for dz in (5e-15, 2e-14):
            z = -1e-10j + dz
            want = 1.0 / (np.array([z, 0.0]) + 1e-10j)
            assert abs(u.evaluate(z) - want[0]) <= 1e-15 * abs(want[0])
            assert np.allclose(u.evaluate(np.array([z, 0.0])), want, rtol=1e-15, atol=0.0)
        with pytest.raises(InputError, match="evaluation at pole"):
            u.evaluate(np.array([0.0, -1e-10j]))


class TestSymplecticForm:
    def test_self_zero(self, generic_m2):
        assert abs(symplectic_form(generic_m2, generic_m2)) < 1e-12

    def test_antisymmetry(self, generic_m2, double_eig_symbol):
        a = symplectic_form(generic_m2, double_eig_symbol)
        b = symplectic_form(double_eig_symbol, generic_m2)
        assert abs(a + b) < 1e-12

    def test_rotation_value(self, soliton_symbol):
        got = symplectic_form(soliton_symbol, as_hardy(1j * soliton_symbol))
        assert abs(got + 4 * np.pi) < 1e-12


class TestMulByXIdentity:
    def test_integral_quadrature(self, generic_m2):
        h = simple_pole(0.4 + 0.9j, 1.0 - 0.8j)
        f = generic_m2 * h.conj_reflect()
        want = quad_line(lambda x: f.evaluate(x))
        assert abs(fn_integral(f) - want) < 1e-9


class TestRepresentation:
    def test_canonical_order_and_merge(self):
        f = from_terms([(1.0 - 1j, [1.0]), (-1.0 - 1j, [2.0]), (1.0 - 1j, [0.5])])
        assert [t.pole.real for t in f.terms] == [-1.0, 1.0]
        assert abs(f.terms[1].coeffs[0] - 1.5) < 1e-15

    def test_trailing_trim(self):
        f = from_terms([(-1j, [1.0, 0.0])])
        assert f.terms[0].multiplicity == 1

    def test_hardy_validation(self):
        with pytest.raises(InputError, match="pole on or above"):
            HardyRational(()) and hardy_from_terms([(1j, [1.0])])

    def test_json_roundtrip(self, double_eig_symbol):
        d = to_json_dict(double_eig_symbol)
        back = from_json_dict(d)
        assert back.terms == double_eig_symbol.terms

    def test_json_validation(self):
        with pytest.raises(InputError):
            from_json_dict({"terms": [{"pole": [0.0, 1.0], "coeffs": [[1, 0]]}]})
        with pytest.raises(InputError):
            load_symbol("{broken")

    def test_ratio_via_load_symbol(self):
        u = load_symbol({"numerator": [1], "denominator": [[0, 1], [1, 0]]})
        assert abs(u.evaluate(0.0) + 1j) < 1e-14

    def test_h_half_norm_decomposes(self, generic_m2):
        v = h_half_norm(generic_m2)
        want = math.hypot(l2_norm(generic_m2),
                          homogeneous_sobolev_norm(generic_m2, 0.5))
        assert abs(v - want) < 1e-14


# Per-term reference loops for the flat view.
def loop_flat(u):
    layout, poles, coeffs = [], [], []
    for t in u.terms:
        for l, c in enumerate(t.coeffs):
            layout.append(l)
            poles.append(t.pole)
            coeffs.append(c)
    return tuple(layout), poles, coeffs


def loop_evaluate(u, z):
    out = np.zeros_like(z)
    for t in u.terms:
        acc = np.zeros_like(z)
        for c in reversed(t.coeffs):
            acc = (acc + c) / (z - t.pole)
        out = out + acc
    return out


class TestFlatView:
    @pytest.fixture(params=("soliton_symbol", "double_eig_symbol", "generic_m2",
                            "mixed_mult", "eight_poles", "zero"))
    def symbol(self, request):
        if request.param == "zero":
            return zero()
        return request.getfixturevalue(request.param)

    def test_matches_the_per_term_loop(self, symbol):
        layout, poles, coeffs = symbol._flat
        assert (layout, poles.tolist(), coeffs.tolist()) == loop_flat(symbol)
        assert symbol.degree == len(layout)

    def test_from_flat_gives_back_the_terms(self, symbol):
        assert _from_flat(*symbol._flat).terms == symbol.terms

    def test_built_once_and_read_only(self, symbol):
        view = symbol._flat
        assert symbol._flat is view
        for a in view[1:]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1.0

    def test_evaluate_matches_horner(self, symbol):
        z = np.concatenate([np.linspace(-4.0, 4.0, 17), np.linspace(-3.0, 3.0, 7) + 0.5j])
        want = loop_evaluate(symbol, z)
        assert np.max(np.abs(symbol.evaluate(z) - want)) <= 1e-14 * np.max(np.abs(want))
        assert symbol.evaluate(0.3) == complex(symbol.evaluate(np.array([0.3]))[0])


def loop_from_terms(pairs):
    """Reference canonicalizer, one `PoleTerm` per pole: merge into the first kept
    pole within the merge tolerance, trim, sort."""
    merged = []
    for pole, coeffs in pairs:
        pole = complex(pole)
        coeffs = [complex(c) for c in coeffs]
        tol = POLE_MERGE_RTOL * abs(pole)
        for mp, mc in merged:
            if abs(mp - pole) <= tol:
                while len(mc) < len(coeffs):
                    mc.append(0.0j)
                for i, c in enumerate(coeffs):
                    mc[i] += c
                break
        else:
            merged.append((pole, coeffs))
    scale = max((abs(c) for _, cs in merged for c in cs), default=0.0)
    floor = COEFF_TRIM_RTOL * scale
    out = []
    for pole, coeffs in merged:
        while coeffs and abs(coeffs[-1]) <= floor:
            coeffs.pop()
        coeffs = [0.0j if abs(c) <= floor else c for c in coeffs]
        if coeffs:
            out.append(PoleTerm(pole, tuple(coeffs)))
    out.sort(key=lambda t: (t.pole.real, t.pole.imag))
    return SimpleNamespace(terms=tuple(out))


def random_pairs(rng):
    """(pole, coeffs) pairs below the axis: repeats at gaps on both sides of the merge
    tolerance, |p| from 1e-3 to 1e3, multiplicities 1 to 3, zero or tiny top coefficients."""
    pairs = []
    for _ in range(rng.integers(1, 9)):
        pole = complex(rng.uniform(-1, 1), -rng.uniform(0.1, 1)) * 10.0 ** rng.uniform(-3, 3)
        coeffs = list(rng.normal(size=rng.integers(1, 4)) + 1j * rng.normal(size=1))
        coeffs[-1] *= rng.choice([1.0, 0.0, 1e-15])
        pairs.append((pole, coeffs))
        if rng.random() < 0.6:
            gap = rng.choice([0.3, 0.9, 1.1, 3.0]) * POLE_MERGE_RTOL * abs(pole)
            near = pole + gap * np.exp(1j * rng.uniform(0, 2 * np.pi))
            pairs.append((near, list(rng.normal(size=rng.integers(1, 4)) + 0j)))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


class TestCanonicalizer:
    """One canonicalizer builds every symbol from a flat view."""

    def test_bitwise_the_per_term_merge(self):
        for seed in range(300):
            pairs = random_pairs(np.random.default_rng(seed))
            layout, poles, coeffs = loop_flat(loop_from_terms(pairs))
            for f in (from_terms(pairs), hardy_from_terms(pairs)):
                got = f._flat
                assert got[0] == layout
                assert got[1].tobytes() == np.array(poles, dtype=complex).tobytes()
                assert got[2].tobytes() == np.array(coeffs, dtype=complex).tobytes()

    def test_merge_rule_is_relative_below_unit_scale(self):
        # 1% apart relative to |p|: two poles at any scale, in a sum and in a product
        p, q = 1e-12 - 5e-11j, 1.5e-12 - 5e-11j
        u = hardy_from_terms([(p, [1]), (q, [1])])
        assert u._flat[0] == (0, 0) and u._flat[1].tolist() == [p, q]
        assert u._flat[2].tolist() == [1, 1]
        assert (simple_pole(1.0, p) * simple_pole(1.0, q))._flat[0] == (0, 0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_flat_view(self, bad):
        with pytest.raises(InputError, match="finite"):
            _from_flat((0, 1), [-1j, -1j], [1.0, bad])
        with pytest.raises(InputError, match="finite"):
            from_terms([(bad, [1.0])])

    @pytest.mark.parametrize("im", (-1e-12, 0.0, 1.0))
    def test_every_hardy_construction_checks_the_poles(self, im):
        pole = complex(0.5, im)
        with pytest.raises(InputError, match="pole on or above"):
            HardyRational((PoleTerm(pole, (1.0,)),))
        with pytest.raises(InputError, match="pole on or above"):
            hardy_from_terms([(pole, [1.0])])
        with pytest.raises(InputError, match="pole on or above"):
            _from_flat((0,), [pole], [1.0])
        with pytest.raises(InputError, match="pole on or above"):
            as_hardy(from_terms([(pole, [1.0])]))

    def test_terms_cached_and_round_trip(self, mixed_mult, eight_poles):
        for u in (mixed_mult, eight_poles, zero()):
            assert u.terms is u.terms
            back = HardyRational(u.terms)
            assert back.terms == u.terms
            assert back._flat[0] == u._flat[0]
            assert back._flat[1].tobytes() == u._flat[1].tobytes()
            assert back._flat[2].tobytes() == u._flat[2].tobytes()
            assert back == u and hash(back) == hash(u)
            assert back is not u and back != u.scale(2.0)

    def test_equality_by_value(self, generic_m2, mixed_mult):
        assert generic_m2 != mixed_mult
        assert len({generic_m2, hardy_from_terms([(t.pole, t.coeffs) for t in generic_m2.terms]),
                    mixed_mult}) == 2
        assert repr(simple_pole(1.0, 0.5 - 1j)) == (
            "HardyRational(terms=(PoleTerm(pole=(0.5-1j), coeffs=((1+0j),)),))")

    def test_immutable(self, generic_m2):
        with pytest.raises(AttributeError):
            generic_m2.terms = ()
        with pytest.raises(AttributeError):
            generic_m2._flat = generic_m2._flat


def seeded_rows(rng, T, n):
    """A (T, n) stack of simple-pole flat views with poles in [-2, 2] x [-2, -0.1]i.

    Among its rows: a pair within POLE_MERGE_RTOL, a pair between one and two
    of it, a coefficient under the trim floor, one between one and two floors,
    and equal real parts.  At T = 1 they all fall on the one row.
    """
    poles = rng.uniform(-2, 2, (T, n)) - 1j * rng.uniform(0.1, 2, (T, n))
    coeffs = rng.normal(size=(T, n)) + 1j * rng.normal(size=(T, n))
    floor = COEFF_TRIM_RTOL * np.abs(coeffs).max(axis=-1)
    for row, gap in zip(rng.permutation(T)[:2], (0.5, 1.5)):
        if n > 1:
            poles[row, 1] = poles[row, 0] + gap * POLE_MERGE_RTOL * abs(poles[row, 0])
    for row, under in zip(rng.permutation(T)[:2], (0.5, 1.5)):
        coeffs[row, -1] = under * floor[row] * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if n > 2:
        poles[rng.integers(T), 2] = poles[rng.integers(T), 0].real - 1j * rng.uniform(0.1, 2)
        row = rng.integers(T)
        poles[row, 2] = poles[row, 1].real + 1j * poles[row, 2].imag
    return poles, coeffs


def canonical_each(cls, poles, coeffs):
    """`_canonical` row by row, or the exception of the first row that raises."""
    try:
        layout = (0,) * poles.shape[1]
        return [rational._canonical(cls, layout, p, c) for p, c in zip(poles, coeffs)]
    except InputError as e:
        return e


class TestCanonicalRows:
    """The stacked build of simple-pole rows is `_canonical` of each row, bitwise."""

    def assert_same(self, cls, poles, coeffs):
        want = canonical_each(cls, poles, coeffs)
        if isinstance(want, InputError):
            with pytest.raises(InputError) as got:
                rational._canonical_rows(cls, poles, coeffs)
            assert str(got.value) == str(want)
            return
        got = rational._canonical_rows(cls, poles, coeffs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w) is cls
            assert g._flat[0] == w._flat[0]
            assert g._flat[1].tobytes() == w._flat[1].tobytes()
            assert g._flat[2].tobytes() == w._flat[2].tobytes()
            assert not (g._flat[1].flags.writeable or g._flat[2].flags.writeable)

    @pytest.mark.parametrize("cls", (HardyRational, RationalFn))
    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    @pytest.mark.parametrize("T", (1, 41))
    def test_bitwise_the_canonicalizer(self, cls, n, T):
        for seed in range(5):
            self.assert_same(cls, *seeded_rows(np.random.default_rng(seed), T, n))

    def test_merged_trimmed_and_tied_rows_take_the_loop(self, monkeypatch):
        poles, coeffs = seeded_rows(np.random.default_rng(0), 41, 4)
        looped = []
        inner = rational._canonical
        monkeypatch.setattr(rational, "_canonical",
                            lambda *args: looped.append(args) or inner(*args))
        got = rational._canonical_rows(HardyRational, poles, coeffs)
        assert 2 <= len(looped) <= 4     # the two merge and the two trim candidates
        assert sum(u.degree < 4 for u in got) == 2

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ("pole", "coeff"))
    @pytest.mark.parametrize("n", (2, 4))
    @pytest.mark.parametrize("T", (1, 41))
    def test_non_finite_entry(self, bad, where, n, T):
        poles, coeffs = seeded_rows(np.random.default_rng(1), T, n)
        (poles if where == "pole" else coeffs)[T // 2, 1] = bad
        self.assert_same(HardyRational, poles, coeffs)

    @pytest.mark.parametrize("im", (-1e-12, 0.0, 1.0))
    @pytest.mark.parametrize("T", (1, 41))
    def test_pole_on_the_axis(self, im, T):
        poles, coeffs = seeded_rows(np.random.default_rng(2), T, 4)
        poles[T // 2, 3] = complex(0.5, im)
        self.assert_same(HardyRational, poles, coeffs)
        self.assert_same(RationalFn, poles, coeffs)

    def test_margins_cover_the_rounding_of_numpy_abs(self):
        # Python's abs, which the loop uses, puts c on the trim floor COEFF_TRIM_RTOL * big
        # and q - p on p's merge radius exactly; numpy's vectorized abs (x86-64, numpy 2.4)
        # puts both one unit above.  The loop trims c and merges p into q
        c, big = 0.0413259793472436 - 0.13616727303532677j, 2846005116993.7153
        q, p = 1.0871303857129533e-12 - 1.4962530690805909j, -1.496253069081619j
        assert abs(c) == COEFF_TRIM_RTOL * big and abs(q - p) == POLE_MERGE_RTOL * abs(p)
        poles, coeffs = seeded_rows(np.random.default_rng(4), 41, 2)
        coeffs[7] = big, c
        poles[9] = q, p
        self.assert_same(HardyRational, poles, coeffs)
        got = rational._canonical_rows(HardyRational, poles, coeffs)
        assert got[7].degree == got[9].degree == 1

    @pytest.mark.parametrize("first", ("pole", "coeff"))
    def test_the_first_failing_row_raises(self, first):
        poles, coeffs = seeded_rows(np.random.default_rng(3), 41, 4)
        rows = (5, 30) if first == "pole" else (30, 5)
        poles[rows[0], 0] = 0.5
        coeffs[rows[1], 0] = math.nan
        self.assert_same(HardyRational, poles, coeffs)


def test_import_leaves_quadrature_out():
    # the library runs on numpy alone: scipy is loaded neither by the
    # import nor by a recovery on the clustered-eigenvalue route
    src = os.path.dirname(os.path.dirname(szego.__file__))
    code = (
        "import sys, szego\n"
        "def scipy_loaded():\n"
        "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "print(scipy_loaded())\n"
        "u = szego.hardy_from_terms([(-1j, [0.0, 1.0])])\n"
        "dec = szego.eigendecompose(u)\n"
        "u0 = szego.recover_rational(dec, 0.0)\n"
        "print(u0.terms[0].multiplicity, scipy_loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "2", "False"]
