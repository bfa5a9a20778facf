import cmath
import math

import numpy as np
import pytest

from conftest import mp_l2_norm, mp_sobolev_norms, pole_flow
from szego import flow, rational
from szego.actionangle import chi_inverse
from szego.asymptotics import growth_fit, soliton_params_from_spectrum, soliton_term
from szego.errors import InputError, NumericalError, PreconditionError
from szego.flow import (
    _flow_pairing,
    _pairing,
    _recover_many,
    _resolvent,
    _s_stack,
    conserved_quantities,
    evolve_eval,
    recover_rational,
    s_matrix,
    spectral_conserved,
    trajectory,
)
from szego.hankel import eigendecompose
from szego.rational import (
    _from_flat,
    as_hardy,
    h_half_norm,
    hardy_from_terms,
    inner_product,
    l2_norm,
    simple_pole,
    zero,
)
from szego.sampling import random_coords, random_strongly_generic, random_symbol

S_CHECKED = ("soliton_symbol", "generic_m2", "double_eig_symbol", "mixed_mult",
             "eight_poles")
MANY_TIMES = (0.0, 0.7, -0.7, 5.0, -5.0, *np.geomspace(1e2, 1e4, 5).tolist())


def s_matrix_loop(dec, t):
    """Entry-by-entry S(t): the reference for the broadcast assembly."""
    n = dec.size
    lam = dec.lambdas
    lam2 = lam**2
    beta = dec.betas
    S = np.empty((n, n), dtype=complex)
    for j in range(n):
        grp = next(c for c in dec.clusters if j in c)
        for k in range(n):
            if k in grp:
                S[k, j] = (lam2[j] / (2.0 * math.pi)) * np.conj(beta[j]) * beta[k] * t \
                    + dec.shift[k, j]
            else:
                osc1 = cmath.exp(0.5j * t * (lam2[k] - lam2[j]))
                osc2 = cmath.exp(0.5j * t * (lam2[j] - lam2[k]))
                S[k, j] = lam[j] / (2j * math.pi * (lam2[k] - lam2[j])) * (
                    lam[j] * osc1 * np.conj(beta[j]) * beta[k]
                    - lam[k] * osc2 * beta[j] * np.conj(beta[k])
                )
    return S


def counting(monkeypatch, name):
    """Wrap flow.<name> so that its calls are counted."""
    calls = []
    inner = getattr(flow, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(flow, name, wrapper)
    return calls


class TestSMatrix:
    def test_zero_time_is_shift_matrix(self, generic_m2):
        dec = eigendecompose(generic_m2)
        fm = s_matrix(dec, 0.0)
        assert np.max(np.abs(fm.s - dec.shift)) < 1e-12
        assert np.allclose(fm.w_diag, 1.0)

    @pytest.mark.parametrize("name", S_CHECKED)
    def test_zero_time_is_stored_shift_bitwise(self, name, request):
        dec = eigendecompose(request.getfixturevalue(name))
        assert s_matrix(dec, 0.0).s.tobytes() == dec.shift.tobytes()

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 8))
    def test_zero_time_is_stored_shift_bitwise_on_draws(self, n):
        # eigendecompose stores S(0) of the one assembly s_matrix runs
        for seed in range(10):
            dec = eigendecompose(random_symbol(n, np.random.default_rng(seed)))
            assert s_matrix(dec, 0.0).s.tobytes() == dec.shift.tobytes(), seed

    def test_rank_one_track(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        fm = s_matrix(dec, 3.0)
        assert abs(fm.s[0, 0] - (1.5 + 1j)) < 1e-13
        assert abs(fm.w_diag[0] - np.exp(1j * 3.0 * 0.25 / 2)) < 1e-13

    def test_double_eigenvalue_drift_pattern(self, double_eig_symbol):
        # in the rotated cluster basis only the beta-carrying entry drifts
        dec = eigendecompose(double_eig_symbol)
        d = s_matrix(dec, 5.0).s - s_matrix(dec, 0.0).s
        assert abs(d[0, 0]) > 0.1
        assert max(abs(d[0, 1]), abs(d[1, 0]), abs(d[1, 1])) < 1e-12

    def test_rank_one_defect_along_flow(self, generic_m2):
        dec = eigendecompose(generic_m2)
        for t in (0.7, -11.0, 123.0):
            fm = s_matrix(dec, t)
            w = fm.w_diag * dec.betas
            gap = fm.s - (fm.s.conj().T - np.outer(w, np.conj(w)) / (2j * math.pi))
            assert np.max(np.abs(gap)) < 1e-10
            assert np.all(np.linalg.eigvals(fm.s).imag > 0)

    def test_time_derivative_formula(self, generic_m2):
        dec = eigendecompose(generic_m2)
        h, t0 = 1e-5, 1.234
        fd = (s_matrix(dec, t0 + h).s - s_matrix(dec, t0 - h).s) / (2 * h)
        w = s_matrix(dec, t0).w_diag * dec.betas
        lam = dec.lambdas
        n = dec.size
        an = np.empty((n, n), dtype=complex)
        for j in range(n):
            an[:, j] = (lam[j] ** 2 * np.conj(w[j]) * w
                        + lam[j] * w[j] * lam * np.conj(w)) / (4 * math.pi)
        assert np.max(np.abs(fd - an)) < 1e-6


class TestBroadcastSMatrix:
    @pytest.mark.parametrize("name", S_CHECKED)
    def test_matches_entrywise_loop(self, name, request):
        dec = eigendecompose(request.getfixturevalue(name))
        for t in (0.0, 0.7, -11.0, 123.0):
            got = s_matrix(dec, t).s
            want = s_matrix_loop(dec, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", S_CHECKED)
    def test_time_stack_matches_one_time_assembly(self, name, request):
        dec = eigendecompose(request.getfixturevalue(name))
        stack = _s_stack(dec, MANY_TIMES)
        assert stack.shape == (len(MANY_TIMES), dec.size, dec.size)
        for t, got in zip(MANY_TIMES, stack):
            want = s_matrix(dec, t).s
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_time_stack_rejects_a_non_finite_time(self, generic_m2):
        with pytest.raises(InputError, match="time must be finite, got nan"):
            _s_stack(eigendecompose(generic_m2), [0.0, 1.0, math.nan])

    def test_clusters_exercised(self, double_eig_symbol, eight_poles):
        # the double eigenvalue fills a 2x2 drift block; 8 poles, none
        assert [len(c) for c in eigendecompose(double_eig_symbol).clusters] == [2]
        assert [len(c) for c in eigendecompose(eight_poles).clusters] == [1] * 8


def pairing_at(dec, t):
    """(A, a, b) of u(t), from S(t) and W(t) beta."""
    fm = s_matrix(dec, t)
    return _flow_pairing(fm.s, dec.lambdas, fm.w_diag * dec.betas)


class TestResolventBatch:
    def test_batch_equals_scalar_calls(self, eight_poles):
        dec = eigendecompose(eight_poles)
        xs = np.concatenate([np.linspace(-6.0, 6.0, 18), [0.3 + 0.5j, -1.0 + 2.0j]])
        for t in (0.0, 2.5):
            batch = _pairing(*pairing_at(dec, t), xs)
            one = np.array([evolve_eval(dec, t, x) for x in xs])
            assert batch.shape == (20,)
            assert np.max(np.abs(batch - one)) <= 1e-13 * np.max(np.abs(one))

    def test_shared_s_matrix_follows_symbol_and_time(self, generic_m2, eight_poles):
        # evolve_eval reuses the last S(t) only for the same decomposition and t
        x = 0.3 + 0.2j
        for u in (generic_m2, eight_poles):
            dec = eigendecompose(u)
            for t in (0.7, 0.7, 2.5, 0.7):
                want = _pairing(*pairing_at(dec, t), [x])[0]
                assert evolve_eval(dec, t, x) == want

    def test_one_bad_point_fails_the_batch(self, generic_m2):
        # a point on a pole of u(t) makes its resolvent matrix singular
        dec = eigendecompose(generic_m2)
        fm = s_matrix(dec, 0.7)
        xs = np.linspace(-3.0, 3.0, 19)
        _pairing(*pairing_at(dec, 0.7), xs)
        pole = np.linalg.eigvals(np.conj(fm.s))[0]
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(*pairing_at(dec, 0.7), np.concatenate([xs[:9], [pole], xs[9:]]))

    def test_nan_matrix_fails_closed(self, generic_m2):
        # a NaN residual is not within the bound, so the solve fails closed
        dec = eigendecompose(generic_m2)
        A, a, b = pairing_at(dec, 0.7)
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, [0.1, complex(math.nan, 0.0)])
        A = A.copy()
        A[0, 1] = math.nan
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, [0.1])

    def test_perturbed_solve_rejected_at_small_b(self, monkeypatch, generic_m2):
        # the residual bound is relative to |b|: a solve off by 1e-8 of itself
        # fails at |b| = 1e-6, where a floor at |b| = 1 let it pass
        dec = eigendecompose(generic_m2)
        A, a, b = pairing_at(dec, 0.7)
        b = 1e-6 * b / np.linalg.norm(b)
        _resolvent(A, a, b, 0.1)
        _pairing(A, a, b, [0.1])
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, B: exact(M, B) * (1.0 + 1e-8))
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _resolvent(A, a, b, 0.1)
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, [0.1])


def stacked_pairings(dec, times):
    """(A, a, b) of every t, stacked along a leading axis, from one-time pairings."""
    return tuple(map(np.array, zip(*(pairing_at(dec, t) for t in times))))


class TestStackedPairing:
    @pytest.mark.parametrize("name", S_CHECKED)
    def test_time_point_stack_equals_resolvent_loop(self, name, request):
        dec = eigendecompose(request.getfixturevalue(name))
        times = (0.3, -2.0, 7.5)
        A, a, b = stacked_pairings(dec, times)
        xs = np.array([np.linspace(-4.0, 4.0, 9) + k for k in range(3)], dtype=complex)
        xs[:, 4] += 0.6j                                  # one point off the axis
        got = _pairing(A, a, b, xs)
        assert got.shape == (3, 9)
        want = np.array([[_resolvent(A[i], a[i], b[i], x) for x in xs[i]]
                         for i in range(3)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_nan_point_fails_the_stack(self, eight_poles):
        dec = eigendecompose(eight_poles)
        A, a, b = stacked_pairings(dec, (0.3, 1.0, 2.0))
        xs = np.tile(np.linspace(-3.0, 3.0, 5), (3, 1)).astype(complex)
        _pairing(A, a, b, xs)
        xs[2, 1] = complex(math.nan, 0.0)
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, xs)

    def test_one_on_pole_point_fails_the_stack(self, generic_m2):
        # a point on a pole of u(t) at one time of the stack
        dec = eigendecompose(generic_m2)
        times = (0.3, 0.7, 2.0)
        A, a, b = stacked_pairings(dec, times)
        xs = np.tile(np.linspace(-3.0, 3.0, 6), (3, 1)).astype(complex)
        _pairing(A, a, b, xs)
        xs[1, 3] = np.linalg.eigvals(A[1])[0]
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, xs)


def assert_same_symbols(got, want, rtol=1e-13):
    """Equal layouts (so multiplicities), poles and coefficients to rtol relative."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        (gl, gp, gc), (wl, wp, wc) = g._flat, w._flat
        assert gl == wl
        assert np.max(np.abs(gp - wp), initial=0.0) <= rtol * np.max(np.abs(wp), initial=0.0)
        assert np.max(np.abs(gc - wc), initial=0.0) <= rtol * np.max(np.abs(wc), initial=0.0)


class TestRecoverMany:
    @pytest.mark.parametrize("name", S_CHECKED)
    def test_equals_per_time_recovery(self, name, request):
        dec = eigendecompose(request.getfixturevalue(name))
        want, good = [], []
        for t in MANY_TIMES:
            try:
                want.append(recover_rational(dec, t))
            except NumericalError as e:
                # the same failure on the stacked route
                with pytest.raises(NumericalError, match=str(e).split(":")[0]):
                    _recover_many(dec, [t])
            else:
                good.append(t)
        assert len(good) >= len(MANY_TIMES) - 1
        assert_same_symbols(_recover_many(dec, good), want)

    def test_cluster_route(self, monkeypatch):
        # 1/(x+i)^2: a double eigenvalue of S(0), recovered from contour moments
        dec = eigendecompose(hardy_from_terms([(-1j, [0.0, 1.0])]))
        moments = counting(monkeypatch, "_from_moments")
        (got,) = _recover_many(dec, [0.0])
        assert len(moments) == 1
        assert got.terms[0].multiplicity == 2
        # the flow splits the pole at once: moment and bilinear routes in one stack
        both = _recover_many(dec, [0.0, 0.5])
        assert len(moments) == 2
        assert [t.multiplicity for t in both[1].terms] == [1, 1]
        assert_same_symbols([got], [recover_rational(dec, 0.0)])
        assert_same_symbols(both, [recover_rational(dec, t) for t in (0.0, 0.5)])

    def test_times_validated(self, generic_m2):
        dec = eigendecompose(generic_m2)
        assert _recover_many(dec, []) == []
        with pytest.raises(InputError, match="time must be finite"):
            _recover_many(dec, [1.0, math.inf])

    def test_postcondition_covers_every_time(self, monkeypatch, generic_m2):
        dec = eigendecompose(generic_m2)
        exact = flow._canonical_rows

        def perturb_third(cls, poles, coeffs):
            return exact(cls, poles, coeffs + 1e-6 * (np.arange(len(coeffs)) == 2)[:, None])

        monkeypatch.setattr(flow, "_canonical_rows", perturb_third)
        with pytest.raises(NumericalError,
                           match="defective recovery: pointwise mismatch .* at t=2.5"):
            _recover_many(dec, [0.7, 1.5, 2.5, 3.5])

    @pytest.mark.parametrize("t", (4e6, 5e6, 6e6, 8e6))
    def test_near_axis_pole_returns_or_raises_numerical_error(self, double_eig_symbol, t):
        dec = eigendecompose(double_eig_symbol)
        try:
            _recover_many(dec, [t])
        except NumericalError:
            pass

    def test_growth_past_the_resolved_range_is_a_numerical_error(self, double_eig_symbol):
        # at t = 1e8 the second pole (about -13.5/t^2) rounds onto the axis
        with pytest.raises(NumericalError):
            growth_fit(double_eig_symbol, 1.0, np.geomspace(1e5, 1e8, 8))


HORIZON_TIMES = np.geomspace(1.0, 1e9, 17)


class TestReachableHorizon:
    """The horizon the `flow` docstring and the README state, on t = geomspace(1, 1e9, 17)."""

    @pytest.mark.parametrize("name", ("soliton_symbol", "generic_m2", "strongly_generic_3"))
    def test_strongly_generic_recovers_at_every_time(self, name, request):
        u0 = (random_strongly_generic(3, np.random.default_rng(1)) if name == "strongly_generic_3"
              else request.getfixturevalue(name))
        uts = _recover_many(eigendecompose(u0), HORIZON_TIMES)
        h0 = h_half_norm(u0)
        assert len(uts) == len(HORIZON_TIMES)
        assert max(abs(h_half_norm(u) - h0) for u in uts) <= 1e-6 * h0

    @pytest.mark.parametrize("recover", ("recover_rational", "_recover_many"))
    def test_non_generic_returns_to_3p5e6_and_raises_at_4e6(self, double_eig_symbol, recover):
        dec = eigendecompose(double_eig_symbol)
        one = {"recover_rational": lambda t: recover_rational(dec, t),
               "_recover_many": lambda t: _recover_many(dec, [t])[0]}[recover]
        assert one(3.5e6).degree == 2
        with pytest.raises(NumericalError, match="pole on or above the real line"):
            one(4e6)


class TestNonGenericAgainstTheReference:
    """The non-generic flow of `double_eig_symbol` inside its horizon, against the 60-digit
    S(t) of the same decomposition: with the cluster block meeting the closure exactly, the
    error grows like t and not like t^2."""

    @pytest.mark.parametrize("t", (1e4, 1e5, 1e6, 3e6))
    def test_sobolev_norms_and_h_half_drift(self, double_eig_symbol, t):
        dec = eigendecompose(double_eig_symbol)
        ut = recover_rational(dec, t)
        want = np.array(mp_sobolev_norms(dec, t, (0.5, 1.0, 2.0)))
        got = rational._sobolev_norms([ut], (0.5, 1.0, 2.0))[0]
        assert np.abs(got / want - 1.0).max() <= 1e-9
        h0 = h_half_norm(double_eig_symbol)
        assert abs(h_half_norm(ut) - h0) <= 1e-10 * h0


class TestNonFiniteInput:
    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
    def test_time(self, generic_m2, t):
        dec = eigendecompose(generic_m2)
        with pytest.raises(InputError, match="time must be finite"):
            evolve_eval(dec, t, 0.1)
        with pytest.raises(InputError, match="time must be finite"):
            recover_rational(dec, t)
        with pytest.raises(InputError, match="time must be finite"):
            trajectory(generic_m2, [0.0, t])

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
    def test_flow_matrix_time(self, generic_m2, t):
        with pytest.raises(InputError, match="time must be finite"):
            s_matrix(eigendecompose(generic_m2), t)

    @pytest.mark.parametrize("x", (math.nan, math.inf, complex(0.1, math.nan)))
    def test_point(self, generic_m2, x):
        with pytest.raises(InputError, match="point must be finite"):
            evolve_eval(eigendecompose(generic_m2), 1.0, x)


def draw_near_multiple(rng, order):
    """One simple pole and one of the given order, as the benchmark draws them:
    poles uniform in [-1.5, 1.5] x [-1.6, -0.5]i and >= 0.5 apart, coefficients
    complex normal with |c| >= 0.2."""
    while True:
        p = [complex(rng.uniform(-1.5, 1.5), -rng.uniform(0.5, 1.6)) for _ in range(2)]
        if abs(p[0] - p[1]) >= 0.5:
            break

    def coeff():
        while True:
            c = complex(rng.normal(), rng.normal())
            if abs(c) >= 0.2:
                return c

    return hardy_from_terms([(p[0], [coeff()]), (p[1], [coeff() for _ in range(order)])])


class TestRecoverChecks:
    def test_one_s_matrix_on_direct_route(self, monkeypatch, eight_poles):
        dec = eigendecompose(eight_poles)
        built = counting(monkeypatch, "s_matrix")
        moments = counting(monkeypatch, "_from_moments")
        points = counting(monkeypatch, "evolve_eval")
        recover_rational(dec, 0.7)
        assert len(built) == 1 and not moments
        assert len(points) == 20

    def test_one_s_matrix_on_fit_route(self, monkeypatch):
        u = hardy_from_terms([(-1j, [0.0, 1.0])])
        dec = eigendecompose(u)
        built = counting(monkeypatch, "s_matrix")
        moments = counting(monkeypatch, "_from_moments")
        points = counting(monkeypatch, "evolve_eval")
        u0 = recover_rational(dec, 0.0)
        assert len(built) == 1 and len(moments) == 1
        assert len(points) == 20
        assert u0.terms[0].multiplicity == 2

    @pytest.mark.parametrize("mu", (1.0, 1e-6))
    def test_perturbed_coefficients_fail_postcondition(self, monkeypatch, generic_m2, mu):
        # the check is relative to the data's scale: at mu = 1e-6 the mismatch
        # is about 1.6e-12, below an absolute 1e-9
        dec = eigendecompose(as_hardy(mu * generic_m2))
        exact = flow._canonical_rows

        def perturbed(cls, poles, coeffs):
            return exact(cls, poles, coeffs + 1e-6 * mu)

        monkeypatch.setattr(flow, "_canonical_rows", perturbed)
        with pytest.raises(NumericalError,
                           match="defective recovery: pointwise mismatch"):
            recover_rational(dec, 0.7)

    @pytest.mark.parametrize("A", ([[-1j, 0], [0, 0]], [[0, 1], [0, 0]]), ids=("eig", "fit"))
    def test_pole_on_the_axis_is_a_numerical_error_on_both_routes(self, A):
        with pytest.raises(NumericalError, match="on or above the real line"):
            flow._from_pairing(np.array([A], dtype=complex), np.ones((1, 2)), np.ones((1, 2)))

    def test_cluster_is_checked_at_its_center(self):
        # one eigenvalue of the cluster rounds onto the axis, their mean does not;
        # the eigenvalue -1i sets the scale that makes the other two a cluster.
        # The pair is symmetric about its mean with equal residues, so its
        # 1/(x - p)^2 coefficient is 0 and the cluster is one simple pole
        A = np.array([np.diag([-1j, -1e-5j, -1e-13j])])
        (u,) = flow._from_pairing(A, np.ones((1, 3)), np.ones((1, 3)))
        (center,) = [t.pole for t in u.terms if abs(t.pole) < 0.5]
        assert abs(center + 5.00000005e-6j) < 1e-18

    @pytest.mark.parametrize("t", (0.0, 2.0))
    @pytest.mark.parametrize("lam", (1e-4, 1e-2, 1e2, 1e4, 1e5, 1e6))
    def test_dilation_keeps_every_pole(self, t, lam):
        # u(t, lam x) solves the equation with data u0(lam x); under an absolute
        # merge floor the three poles came back as 2, 1 and 1 from lam = 1e4 on
        u0 = random_strongly_generic(3, np.random.default_rng(5))
        layout, poles, coeffs = u0._flat
        scaled = _from_flat(layout, poles / lam, coeffs / lam ** np.add(layout, 1))
        got = recover_rational(eigendecompose(scaled), t)
        want = recover_rational(eigendecompose(u0), t)
        assert got.degree == 3
        xs = np.linspace(-3.0, 3.0, 41) * np.abs(want._flat[1]).max()
        ref = want.evaluate(xs)
        assert np.abs(got.evaluate(xs / lam) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("t", (0.0, 1e-12))
    def test_mixed_multiplicities_from_moments(self, monkeypatch, mixed_mult, t):
        # the triple pole's eigenvalues scatter by about 2.5e-4, across the old
        # fixed merge radius, and the near-defective V pollutes the simple pole's
        # bilinear residue by 2e-8: every principal part comes from moments
        dec = eigendecompose(mixed_mult)
        moments = counting(monkeypatch, "_from_moments")
        u = recover_rational(dec, t)
        assert len(moments) == 1
        assert [term.multiplicity for term in u.terms] == [2, 3, 1]
        scale = 10.0 * max(map(abs, u.poles()))
        xs = np.linspace(-scale, scale, 401)
        ref = _pairing(*flow._flow_at(dec, t), xs)
        assert np.max(np.abs(u.evaluate(xs) - ref)) <= 1e-12 * np.max(np.abs(ref))
        if t == 0.0:
            want = mixed_mult.evaluate(xs)
            assert np.max(np.abs(u.evaluate(xs) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", (37.0, 1e3, 1e4))
    def test_wide_group_keeps_its_simple_poles(self, monkeypatch, eight_poles, t):
        # one soliton runs off, and 1e-2 max|E| chains the seven eigenvalues left
        # near the origin into one group; at t = 37 its circle has radius 95 and
        # sees them as one pole of order 7.  Their eigenvectors are well
        # conditioned, so the bilinear residues stand, right near the poles too
        # (the least-squares route was 0.11 to 4.9 off there at t = 1e3 to 1e4)
        dec = eigendecompose(eight_poles)
        moments = counting(monkeypatch, "_from_moments")
        u = recover_rational(dec, t)
        assert not moments
        assert [term.multiplicity for term in u.terms] == [1] * 8
        xs = np.linspace(-3.0, 3.0, 601)
        ref = _pairing(*flow._flow_at(dec, t), xs)
        assert np.max(np.abs(u.evaluate(xs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam", (1e2, 1e4))
    def test_cluster_fit_at_the_data_scale(self, lam):
        # a double pole takes the cluster route, whose fit points spanned
        # +-(2 max|E| + 1): at lam = 1e4 the unit floor cost four digits
        u0 = hardy_from_terms([(-1j, [0.3, 1.0]), (0.7 - 0.6j, [0.5])])
        layout, poles, coeffs = u0._flat
        scaled = _from_flat(layout, poles / lam, coeffs / lam ** np.add(layout, 1))
        got = recover_rational(eigendecompose(scaled), 0.0)
        assert got._flat[0] == scaled._flat[0]
        xs = np.linspace(-3.0, 3.0, 41) * np.abs(poles).max() / lam
        ref = scaled.evaluate(xs)
        assert np.abs(got.evaluate(xs) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("t", (4e6, 5e6, 6e6, 8e6))
    def test_near_axis_pole_returns_or_raises_numerical_error(self, double_eig_symbol, t):
        # the second pole nears the axis like -13.5/t^2, below what eig of
        # S(t) resolves at these t; a pole rounded onto the axis is not an
        # input error
        dec = eigendecompose(double_eig_symbol)
        try:
            recover_rational(dec, t)
        except NumericalError:
            pass

    @pytest.mark.parametrize("order", (2, 3))
    def test_near_multiple_pole_is_right_or_typed(self, order):
        # near t = 0 a multiple pole of u0 sits among nearby eigenvalues of S(t)
        # that the cluster rule may or may not merge; either route must raise
        # NumericalError or match the pairing it recovers.  Over seeds 0-19
        # every draw returns; under a fixed merge radius and a least-squares
        # fit, 5 double-pole draws raised at t = 1e-9 and 9 triple-pole draws at 1e-12
        returned = 0
        for seed in range(20):
            dec = eigendecompose(draw_near_multiple(np.random.default_rng(seed), order))
            for t in (0.0, 1e-12, 1e-9, 1e-6):
                try:
                    u = recover_rational(dec, t)
                except NumericalError:
                    continue
                scale = 10.0 * max(map(abs, u.poles()))
                xs = np.linspace(-scale, scale, 401)
                ref = _pairing(*flow._flow_at(dec, t), xs)
                assert np.max(np.abs(u.evaluate(xs) - ref)) <= 1e-8 * np.max(np.abs(ref))
                returned += 1
        assert returned >= 80      # every recovery returns, so the check is not vacuous


class TestFlatStack:
    def test_shorter_rows_are_padded(self):
        # a 1-pole symbol and the zero symbol padded to n = 3 beside a 3-pole one: the
        # padding adds nothing on the real line, leaves max|p| alone and passes the check
        one = simple_pole(0.5 + 0.2j, 0.3 - 0.8j)
        three = hardy_from_terms([(-1j, [1.0]), (0.8 - 0.7j, [0.5 + 0.3j]), (-0.6 - 1.2j, [0.4j])])
        us = [one, three, zero()]
        flat = flow._flat_stack(us, 3)
        poles, coeffs, powers = flat
        assert poles.shape == coeffs.shape == powers.shape == (3, 3)
        assert abs(poles[0]).max() == abs(one._flat[1]).max()
        assert (poles[2] == -1j).all()
        xs = flow._check_points(poles)
        got = (coeffs[:, None] / (xs[..., None] - poles[:, None]) ** powers[:, None]).sum(axis=-1)
        ref = np.array([u.evaluate(x) for u, x in zip(us, xs)])
        assert (got[0] == ref[0]).all() and (got[2] == 0).all()
        assert flow._checked(us, flat, xs, ref, [0.0, 1.0, 2.0]) is us


class TestL2Norm:
    @pytest.mark.parametrize("name", ("soliton_symbol", "generic_m2",
                                      "double_eig_symbol", "mixed_mult"))
    def test_matches_inner_product(self, name, request):
        f = request.getfixturevalue(name)
        want = math.sqrt(inner_product(f, f).real)
        assert abs(l2_norm(f) - want) <= 1e-12 * want

    def test_soliton_remainder(self):
        u = random_strongly_generic(2, np.random.default_rng(24))
        dec = eigendecompose(u)
        t = 1e3
        rem = recover_rational(dec, t)
        for sp in soliton_params_from_spectrum(dec):
            rem = rem - soliton_term(sp, t)
        # the remainder is about 1% of u, cancelled in floats; the reference is its own
        # partial fractions' norm at 50 digits
        want = mp_l2_norm(rem)
        assert 0.0 < want < 0.1 * l2_norm(u)
        assert abs(l2_norm(rem) - want) <= 1e-12 * want


class TestEvolveEval:
    def test_reproduces_initial_datum(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        xs = np.linspace(-7, 7, 20)
        got = np.array([evolve_eval(dec, 0.0, x) for x in xs])
        assert np.max(np.abs(got - double_eig_symbol.evaluate(xs))) < 1e-10

    def test_exact_soliton(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        for t in (0.0, 1.0, -2.7, 5.3):
            for x in (0.0, 1.3, 0.5 + 0.9j):
                got = evolve_eval(dec, t, x)
                want = np.exp(-1j * t / 4) / (x - t / 2 + 1j)
                assert abs(got - want) < 1e-12


class TestRecoverRational:
    def test_soliton_closed_form(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        ut = recover_rational(dec, 2.0)
        assert abs(ut.terms[0].pole - (1.0 - 1j)) < 1e-12
        assert abs(ut.terms[0].coeffs[0] - np.exp(-0.5j)) < 1e-12

    def test_identity_at_zero(self, generic_m2):
        dec = eigendecompose(generic_m2)
        u0 = recover_rational(dec, 0.0)
        xs = np.linspace(-5, 5, 9)
        assert np.max(np.abs(u0.evaluate(xs) - generic_m2.evaluate(xs))) < 1e-11

    def test_pole_eigenvalue_duality(self, generic_m2):
        dec = eigendecompose(generic_m2)
        for t in (0.9, -7.7):
            ut = recover_rational(dec, t)
            poles = sorted((tt.pole for tt in ut.terms), key=lambda z: z.real)
            eigs = sorted(np.conj(np.linalg.eigvals(s_matrix(dec, t).s)),
                          key=lambda z: z.real)
            assert max(abs(a - b) for a, b in zip(poles, eigs)) < 1e-8

    def test_degenerate_shift_matrix_fallback(self):
        # 1/(x+i)^2 has a defective shift matrix at t = 0 (double pole)
        u = hardy_from_terms([(-1j, [0.0, 1.0])])
        dec = eigendecompose(u)
        u0 = recover_rational(dec, 0.0)
        assert u0.terms[0].multiplicity == 2
        xs = np.linspace(-4, 4, 9)
        assert np.max(np.abs(u0.evaluate(xs) - u.evaluate(xs))) < 1e-10
        # the double pole splits immediately under the flow
        u1 = recover_rational(dec, 0.5)
        assert sorted(t.multiplicity for t in u1.terms) == [1, 1]

    def test_double_eigenvalue_pole_tracks(self, double_eig_symbol):
        # one pole settles at -i nu_1^2/(4 pi) = -3i, the other approaches
        # the axis like -13.5/t^2
        dec = eigendecompose(double_eig_symbol)
        for t in (1e2, 1e3):
            ut = recover_rational(dec, t)
            ims = sorted(tt.pole.imag for tt in ut.terms)
            assert abs(ims[0] + 3.0) < 20.0 / t**2
            assert abs(ims[1] * t**2 + 13.5) < 0.1 * 13.5


class TestConservedQuantities:
    def test_rank_one_values(self, soliton_symbol):
        J = conserved_quantities(soliton_symbol, 2)
        assert abs(J[0] - math.pi) < 1e-12
        assert abs(J[1] - math.pi / 4) < 1e-12

    def test_zero_symbol(self):
        assert conserved_quantities(zero(), 3) == [0.0, 0.0, 0.0]

    def test_quadrature_cross_check(self, generic_m2):
        # J_2 = mass, J_4 = (1/2) int |u|^4, both by residue integrals
        J = conserved_quantities(generic_m2, 2)
        mass = inner_product(generic_m2, generic_m2).real
        q = generic_m2 * generic_m2.conj_reflect()
        quartic = inner_product(q, q.conj_reflect()).real
        assert abs(J[0] - mass) < 1e-9 * mass
        assert abs(J[1] - quartic / 2) < 1e-9 * quartic

    def test_conservation_along_flow(self, generic_m2):
        dec = eigendecompose(generic_m2)
        J0 = spectral_conserved(dec, 4)
        h0 = h_half_norm(generic_m2)
        for t in (-100.0, -3.0, 17.0, 100.0):
            ut = recover_rational(dec, t)
            Jt = spectral_conserved(eigendecompose(ut), 4)
            assert max(abs(a - b) / abs(b) for a, b in zip(Jt, J0)) < 1e-9
            assert abs(h_half_norm(ut) - h0) / h0 < 1e-9

    def test_kmax_validation(self, soliton_symbol):
        with pytest.raises(PreconditionError):
            conserved_quantities(soliton_symbol, 0)

    @pytest.mark.parametrize("kmax", (2.5, math.nan, "2", None))
    def test_kmax_not_an_integer_rejected(self, soliton_symbol, kmax):
        # these raised untyped TypeErrors; an integer of any type is read by operator.index
        dec = eigendecompose(soliton_symbol)
        for fn, arg in ((conserved_quantities, soliton_symbol), (spectral_conserved, dec)):
            with pytest.raises(InputError, match="kmax must be an integer"):
                fn(arg, kmax)
            assert fn(arg, np.int64(2)) == fn(arg, 2)

    @staticmethod
    def assert_quadratic_form_is_spectral(u, dec):
        J = conserved_quantities(u, 4)
        want = spectral_conserved(dec, 4)
        assert max(abs(a - b) / b for a, b in zip(J, want)) <= 1e-11
        assert abs(J[0] - l2_norm(u) ** 2) <= 1e-14 * J[0]

    @pytest.mark.parametrize("name", S_CHECKED)
    def test_quadratic_form_on_fixed_symbols(self, name, request):
        u = request.getfixturevalue(name)
        self.assert_quadratic_form_is_spectral(u, eigendecompose(u))

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_quadratic_form_on_draws(self, n):
        decomposed = 0
        for seed in range(10):
            u = random_symbol(n, np.random.default_rng(seed))
            try:
                dec = eigendecompose(u)
            except (NumericalError, PreconditionError):
                continue                          # only decomposed draws compare
            self.assert_quadratic_form_is_spectral(u, dec)
            decomposed += 1
        assert decomposed

    def test_no_decomposition(self, monkeypatch, eight_poles):
        calls = counting(monkeypatch, "eigendecompose")
        conserved_quantities(eight_poles, 4)
        assert not calls


class TestTrajectory:
    def test_single_time_zero(self, generic_m2):
        rows = trajectory(generic_m2, [0.0])
        want = {t.pole for t in generic_m2.terms}
        got = set(rows[0]["poles"])
        assert all(min(abs(a - b) for b in want) < 1e-10 for a in got)
        assert abs(rows[0]["J"][0] - inner_product(generic_m2, generic_m2).real) < 1e-9

    def test_soliton_pole_line(self):
        C, p = 0.8 + 0.1j, -0.2 - 0.7j
        u = simple_pole(C, p)
        c = abs(C) ** 2 / (-2 * p.imag)
        rows = trajectory(u, [0.0, 1.0, 2.0], observables=("poles",))
        for t, row in zip((0.0, 1.0, 2.0), rows):
            assert abs(row["poles"][0] - (p + c * t)) < 1e-11

    def test_conserved_columns_flat(self, double_eig_symbol):
        rows = trajectory(double_eig_symbol, np.linspace(-5, 5, 7),
                          observables=("conserved", "norms"), hs=(1.0,))
        J0 = rows[0]["J"]
        for row in rows:
            assert max(abs(a - b) / abs(b) for a, b in zip(row["J"], J0)) < 1e-9
            assert "Hdot1" in row

    def test_unknown_observable(self, soliton_symbol):
        with pytest.raises(PreconditionError, match="unknown observable"):
            trajectory(soliton_symbol, [0.0], observables=("bogus",))

    def test_one_decomposition(self, monkeypatch, generic_m2):
        calls = counting(monkeypatch, "eigendecompose")
        rows = trajectory(generic_m2, np.linspace(-5, 5, 11))
        assert [args[0] for args in calls] == [generic_m2]
        assert all(len(row["J"]) == 4 for row in rows)

    @pytest.mark.parametrize("count", (1, 4, 11))
    def test_norms_of_all_rows_in_two_passes(self, monkeypatch, generic_m2, count):
        # one pass for the norms and one for the soliton remainders, whatever
        # the number of times; `l2_norm` per row would reach rational's own binding
        calls = []
        for mod in (flow, rational):
            inner = mod._sobolev_norms
            monkeypatch.setattr(mod, "_sobolev_norms",
                                lambda fs, ss, inner=inner: calls.append(ss) or inner(fs, ss))
        rows = trajectory(generic_m2, np.linspace(1.0, 5.0, count),
                          observables=("norms", "solitons"))
        assert len(calls) <= 2 and len(rows) == count
        assert all(row["remainder_L2"] > 0 for row in rows)


POLE_ODE_SYMBOLS = {
    "generic_m2": lambda request: request.getfixturevalue("generic_m2"),
    "strongly_generic_3": lambda _: random_strongly_generic(3, np.random.default_rng(1)),
    "coords_8": lambda _: chi_inverse(random_coords(8, np.random.default_rng(0))),
    "coords_16": lambda _: chi_inverse(random_coords(16, np.random.default_rng(0))),
}


@pytest.mark.parametrize("name", sorted(POLE_ODE_SYMBOLS))
def test_flow_matches_pole_dynamics(name, request):
    # the closed-form flow against the pole ODE, which shares none of its machinery
    u0 = POLE_ODE_SYMBOLS[name](request)
    dec = eigendecompose(u0)
    xs = np.linspace(-4, 4, 81)
    for t in (1.0, -2.0, 5.0):
        want = pole_flow(u0, t).evaluate(xs)
        err = np.max(np.abs(recover_rational(dec, t).evaluate(xs) - want))
        assert err <= 1e-10 * np.max(np.abs(want)), (t, err)
