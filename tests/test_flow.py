import cmath
import math

import numpy as np
import pytest

from szego import flow
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
    h_half_norm,
    hardy_from_terms,
    inner_product,
    l2_norm,
    simple_pole,
    zero,
)
from szego.sampling import random_strongly_generic

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


class TestResolventBatch:
    def test_batch_equals_scalar_calls(self, eight_poles):
        dec = eigendecompose(eight_poles)
        xs = np.concatenate([np.linspace(-6.0, 6.0, 18), [0.3 + 0.5j, -1.0 + 2.0j]])
        for t in (0.0, 2.5):
            batch = _pairing(*_flow_pairing(dec, s_matrix(dec, t)), xs)
            one = np.array([evolve_eval(dec, t, x) for x in xs])
            assert batch.shape == (20,)
            assert np.max(np.abs(batch - one)) <= 1e-13 * np.max(np.abs(one))

    def test_shared_s_matrix_follows_symbol_and_time(self, generic_m2, eight_poles):
        # evolve_eval reuses the last S(t) only for the same decomposition and t
        x = 0.3 + 0.2j
        for u in (generic_m2, eight_poles):
            dec = eigendecompose(u)
            for t in (0.7, 0.7, 2.5, 0.7):
                want = _pairing(*_flow_pairing(dec, s_matrix(dec, t)), [x])[0]
                assert evolve_eval(dec, t, x) == want

    def test_one_bad_point_fails_the_batch(self, generic_m2):
        # a point on a pole of u(t) makes its resolvent matrix singular
        dec = eigendecompose(generic_m2)
        fm = s_matrix(dec, 0.7)
        xs = np.linspace(-3.0, 3.0, 19)
        _pairing(*_flow_pairing(dec, fm), xs)
        pole = np.linalg.eigvals(np.conj(fm.s))[0]
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(*_flow_pairing(dec, fm), np.concatenate([xs[:9], [pole], xs[9:]]))

    def test_nan_matrix_fails_closed(self, generic_m2):
        # a NaN residual is not within the bound, so the solve fails closed
        dec = eigendecompose(generic_m2)
        A, a, b = _flow_pairing(dec, s_matrix(dec, 0.7))
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, [0.1, complex(math.nan, 0.0)])
        A = A.copy()
        A[0, 1] = math.nan
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            _pairing(A, a, b, [0.1])


def stacked_pairings(dec, times):
    """(A, a, b) of every t, stacked along a leading axis, from one-time pairings."""
    return tuple(map(np.array, zip(*(_flow_pairing(dec, s_matrix(dec, t)) for t in times))))


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
        # 1/(x+i)^2: a double eigenvalue of S(0), merged and fitted
        dec = eigendecompose(hardy_from_terms([(-1j, [0.0, 1.0])]))
        fits = counting(monkeypatch, "fit_partial_fractions")
        (got,) = _recover_many(dec, [0.0])
        assert len(fits) == 1
        assert got.terms[0].multiplicity == 2
        # the flow splits the pole at once: cluster and separated routes in one stack
        both = _recover_many(dec, [0.0, 0.5])
        assert len(fits) == 2
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
        exact = flow.hardy_from_terms
        made = []

        def perturb_third(pairs):
            made.append(None)
            if len(made) == 3:
                pairs = [(p, [c + 1e-6 for c in cs]) for p, cs in pairs]
            return exact(pairs)

        monkeypatch.setattr(flow, "hardy_from_terms", perturb_third)
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


class TestRecoverChecks:
    def test_one_s_matrix_on_direct_route(self, monkeypatch, eight_poles):
        dec = eigendecompose(eight_poles)
        built = counting(monkeypatch, "s_matrix")
        fits = counting(monkeypatch, "fit_partial_fractions")
        points = counting(monkeypatch, "evolve_eval")
        recover_rational(dec, 0.7)
        assert len(built) == 1 and not fits
        assert len(points) == 20

    def test_one_s_matrix_on_fit_route(self, monkeypatch):
        u = hardy_from_terms([(-1j, [0.0, 1.0])])
        dec = eigendecompose(u)
        built = counting(monkeypatch, "s_matrix")
        fits = counting(monkeypatch, "fit_partial_fractions")
        points = counting(monkeypatch, "evolve_eval")
        u0 = recover_rational(dec, 0.0)
        assert len(built) == 1 and len(fits) == 1
        assert len(points) == 20
        assert u0.terms[0].multiplicity == 2

    def test_perturbed_coefficients_fail_postcondition(self, monkeypatch, generic_m2):
        dec = eigendecompose(generic_m2)
        exact = flow.hardy_from_terms

        def perturbed(pairs):
            return exact([(p, [c + 1e-6 for c in cs]) for p, cs in pairs])

        monkeypatch.setattr(flow, "hardy_from_terms", perturbed)
        with pytest.raises(NumericalError,
                           match="defective recovery: pointwise mismatch"):
            recover_rational(dec, 0.7)

    @pytest.mark.parametrize("A", ([[-1j, 0], [0, 0]], [[0, 1], [0, 0]]), ids=("eig", "fit"))
    def test_pole_on_the_axis_is_a_numerical_error_on_both_routes(self, A):
        with pytest.raises(NumericalError, match="on or above the real line"):
            flow._from_pairing(np.array([A], dtype=complex), np.ones((1, 2)), np.ones((1, 2)))

    def test_cluster_is_checked_at_its_center(self):
        # one eigenvalue of the cluster rounds onto the axis, their mean does not
        A = np.array([np.diag([-1e-5j, -1e-13j])])
        (u,) = flow._from_pairing(A, np.ones((1, 2)), np.ones((1, 2)))
        assert abs(u.poles()[0] + 5.00000005e-6j) < 1e-18

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
        want = math.sqrt(inner_product(rem, rem).real)
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
