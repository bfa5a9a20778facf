import math
import warnings

import mpmath
import numpy as np
import pytest

from szego import hankel, rational
from szego.errors import InputError, NumericalError, PreconditionError
from szego.hankel import (
    classify_genericity,
    decomposition_to_json,
    eigendecompose,
    t_matrix,
)
from szego.flow import recover_rational
from szego.rational import (
    RationalFn,
    _from_flat,
    as_hardy,
    blaschke,
    hankel_apply,
    hardy_from_terms,
    homogeneous_sobolev_norm,
    inner_product,
    l2_norm,
    simple_pole,
    zero,
)
from szego.sampling import random_symbol

from conftest import EIGHT_POLES, linalg_calls, quad_inner

XS = np.linspace(-3.7, 4.1, 11)
CROSS_CHECKED = ("soliton_symbol", "double_eig_symbol", "generic_m2", "mixed_mult")
DRAWS = {f"random_symbol_{n}": n for n in range(1, 9)}

# Simple 8-pole symbol whose two smallest lambda^2 (about 1.8e-14 and 7.1e-14)
# fall within one CLUSTER_RTOL * lambda_max^2 band, though they differ 4x.
CLOSE_SMALL_PAIR = [
    (0.93269 - 0.55958j, [-1.55955 + 1.68307j]),
    (0.39448 - 0.83194j, [-0.34251 - 0.41007j]),
    (-0.58067 - 1.11813j, [2.29485 - 1.27207j]),
    (-1.23327 - 1.38245j, [0.21750 - 0.20595j]),
    (-0.10743 - 1.41191j, [0.46041 - 0.01903j]),
    (0.39228 - 1.58516j, [-0.16110 + 0.19354j]),
    (1.02605 - 1.34907j, [0.13479 + 0.49109j]),
    (-0.40129 - 0.59904j, [0.87674 - 1.32792j]),
]


def mp_lambda2(u, dps=50):
    """Ascending eigenvalues of M conj(M), M[j, a] = c_j / (p_j - conj p_a).

    H_u f_a = sum_j M[j, a] f_j on f_a = 1/(x - p_a) for a symbol with simple
    poles, and H_u is antilinear, so its square acts as M conj(M).
    """
    with mpmath.workdps(dps):
        p = [mpmath.mpc(t.pole) for t in u.terms]
        c = [mpmath.mpc(t.coeffs[0]) for t in u.terms]
        n = len(p)
        M = mpmath.matrix(n, n)
        for j in range(n):
            for a in range(n):
                M[j, a] = c[j] / (p[j] - mpmath.conj(p[a]))
        vals = mpmath.eig(M * M.conjugate(), left=False, right=False)
        return np.sort([float(mpmath.re(v)) for v in vals])


# The partial-fraction range basis of u, built here from `hankel`'s private assemblies.
def basis_index(u):
    """(pole, l) of each entry 1/(x - pole)^l of u's range basis, in u's flat order."""
    layout, poles, _ = u._flat
    return [(p, k + 1) for p, k in zip(poles.tolist(), layout)]


def basis_fn(entry):
    pole, l = entry
    return hardy_from_terms([(pole, [0.0j] * (l - 1) + [1.0 + 0.0j])])


def gram_and_chol(u):
    """G and the Cholesky factor L of conj(G) from `_range_stack`, u a stack of one."""
    layout, p, c = u._flat
    G, ok, L, _ = hankel._range_stack(layout, p[None], c[None])
    assert ok[0]
    return G[0], L[0]


def hankel_matrix(u):
    """M = C G / (-2 pi i): H_u f_a = sum_b M[b, a] f_b on u's range basis."""
    layout, _, c = u._flat
    return hankel._coefficient_stack(layout, c) @ gram_and_chol(u)[0] / (-2j * math.pi)


def eigenfunction(dec, j):
    """e_j as a rational function: coordinates c = L^-H d on the range basis."""
    layout, p, _ = dec.u._flat
    L = gram_and_chol(dec.u)[1]
    return _from_flat(layout, p, np.linalg.solve(L.conj().T, dec.evecs[:, j]))


class TestRangeBasis:
    def test_rank_one_gram(self, soliton_symbol):
        G, _ = gram_and_chol(soliton_symbol)
        assert G.shape == (1, 1)
        assert abs(G[0, 0] - np.pi) < 1e-13

    def test_two_pole_gram_vs_quadrature(self, double_eig_symbol):
        G, _ = gram_and_chol(double_eig_symbol)
        index = basis_index(double_eig_symbol)
        assert len(index) == 2
        f0, f1 = basis_fn(index[0]), basis_fn(index[1])
        assert abs(G[0, 1] - quad_inner(f0, f1)) < 1e-9

    def test_double_pole_enumeration(self):
        u = hardy_from_terms([(-1j, [0.3, 1.0])])
        assert [l for (_p, l) in basis_index(u)] == [1, 2]

    def test_mixed_multiplicity_enumeration(self, mixed_mult):
        assert [l for (_p, l) in basis_index(mixed_mult)] == [1, 2, 1, 2, 3, 1]

    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_closed_form_matches_residue_arithmetic(self, name, request):
        u = request.getfixturevalue(name)
        G, _ = gram_and_chol(u)
        fs = [basis_fn(e) for e in basis_index(u)]
        for a, fa in enumerate(fs):
            for b, fb in enumerate(fs):
                want = inner_product(fa, fb)
                assert abs(G[a, b] - want) <= 1e-12 * abs(want)

    def test_near_merging_poles_rejected(self):
        u = hardy_from_terms([(-1j, [1.0]), (1e-7 - 1j, [1.0])])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            hankel._range_basis(u)

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            hankel._range_basis(zero())


class TestHankelMatrix:
    def test_rank_one_value(self, soliton_symbol):
        M = hankel_matrix(soliton_symbol)
        assert abs(M[0, 0] - 0.5j) < 1e-14

    def test_linear_in_symbol(self):
        for C in (2.0, -0.7):
            M = hankel_matrix(simple_pole(C, -1j))
            assert abs(M[0, 0] - 0.5j * C) < 1e-13

    def test_phase_rotation(self, generic_m2):
        M = hankel_matrix(generic_m2)
        theta = 0.77
        Mr = hankel_matrix(as_hardy(np.exp(1j * theta) * generic_m2))
        assert np.max(np.abs(Mr - np.exp(1j * theta) * M)) < 1e-12

    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_closed_form_matches_hankel_action(self, name, request):
        u = request.getfixturevalue(name)
        M = hankel_matrix(u)
        fs = [basis_fn(e) for e in basis_index(u)]
        basis = [f.evaluate(XS) for f in fs]
        for a, fa in enumerate(fs):
            want = hankel_apply(u, fa).evaluate(XS)
            got = sum(M[b, a] * basis[b] for b in range(len(fs)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_symmetry_identity(self, generic_m2):
        fs = [basis_fn(e) for e in basis_index(generic_m2)]
        for fa in fs:
            for fb in fs:
                lhs = inner_product(hankel_apply(generic_m2, fa), fb)
                rhs = inner_product(hankel_apply(generic_m2, fb), fa)
                assert abs(lhs - rhs) < 1e-10


class TestEigendecompose:
    def test_rank_one_closed_form(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        assert abs(dec.lambdas[0] - 0.5) < 1e-14
        assert abs(dec.nus[0] - 2 * math.sqrt(math.pi)) < 1e-12
        assert abs(dec.two_phis[0] - math.pi / 2) < 1e-12
        assert abs(dec.gammas[0]) < 1e-13
        assert dec.genericity == "strongly_generic"

    def test_double_eigenvalue_constant(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        assert np.max(np.abs(dec.lambdas**2 - 1.0 / 9.0)) <= 1e-12
        assert dec.clusters == ((0, 1),)

    def test_general_rank_one(self):
        C, p = 1.3 - 0.6j, 0.4 - 0.9j
        dec = eigendecompose(simple_pole(C, p))
        assert abs(dec.lambdas[0] - abs(C) / (2 * abs(p.imag))) < 1e-12
        assert abs(-dec.nus[0] ** 2 / (4 * math.pi) - p.imag) < 1e-12

    def test_eigenrelation_as_functions(self, generic_m2, mixed_mult, eight_poles):
        for u in (generic_m2, mixed_mult, eight_poles):
            dec = eigendecompose(u)
            for j in range(dec.size):
                ej = eigenfunction(dec, j)
                got = hankel_apply(u, ej)
                gap = np.abs(got.evaluate(XS) - dec.lambdas[j] * ej.evaluate(XS))
                assert np.max(gap) < 1e-9

    def test_eigenrelation_in_degenerate_cluster(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        for j in range(2):
            ej = eigenfunction(dec, j)
            got = hankel_apply(double_eig_symbol, ej)
            gap = np.abs(got.evaluate(XS) - dec.lambdas[j] * ej.evaluate(XS))
            assert np.max(gap) < 1e-9

    def test_mass_identity(self, generic_m2):
        dec = eigendecompose(generic_m2)
        J2 = float(np.sum(dec.lambdas**2 * dec.nus**2))
        assert abs(J2 - l2_norm(generic_m2) ** 2) < 1e-10 * J2

    def test_trace_identity(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        tr = float(np.sum(dec.lambdas**2))
        want = homogeneous_sobolev_norm(double_eig_symbol, 0.5) ** 2 / (2 * math.pi)
        assert abs(tr - want) < 1e-10 * tr

    def test_symbol_coordinates(self, generic_m2):
        dec = eigendecompose(generic_m2)
        for j in range(dec.size):
            got = inner_product(generic_m2, eigenfunction(dec, j))
            want = dec.lambdas[j] * np.conj(dec.betas[j])
            assert abs(got - want) < 1e-10

    def test_spectral_reconstruction(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        rec = RationalFn()
        for j in range(dec.size):
            rec = rec + (dec.lambdas[j] * np.conj(dec.betas[j])) * eigenfunction(dec, j)
        assert np.max(np.abs(rec.evaluate(XS) - double_eig_symbol.evaluate(XS))) < 1e-9

    def test_two_phi_sign_invariance(self, generic_m2):
        # flipping an eigenvector leaves 2 phi_j unchanged mod 2 pi
        dec = eigendecompose(generic_m2)
        g_coords = gram_and_chol(generic_m2)[1].conj().T @ np.array(
            [t.coeffs[0] for t in blaschke(generic_m2).g.terms]
        )
        for j in range(dec.size):
            beta_flipped = np.vdot(-dec.evecs[:, j], g_coords)
            tp = (2 * np.angle(beta_flipped)) % (2 * math.pi)
            assert abs(tp - dec.two_phis[j]) % (2 * math.pi) < 1e-10

    def test_cluster_projects_real(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        cross = np.conj(dec.betas[0]) * dec.betas[1]
        assert abs(cross.imag) < 1e-10

    @pytest.mark.parametrize("n, rtol", ((2, 1e-8), (4, 1e-8), (6, 1e-8), (8, 1e-6)))
    def test_lambda2_against_mpmath(self, n, rtol):
        for seed in range(10):
            u = random_symbol(n, np.random.default_rng(seed))
            want = mp_lambda2(u)
            got = eigendecompose(u).lambdas ** 2
            assert np.max(np.abs(got - want) / want) <= rtol, seed

    def test_close_small_pair_decomposes(self):
        u = hardy_from_terms(CLOSE_SMALL_PAIR)
        dec = eigendecompose(u)
        J2 = float(np.sum(dec.lambdas**2 * dec.nus**2))
        assert abs(J2 - l2_norm(u) ** 2) <= 1e-9 * J2
        assert len(recover_rational(dec, 0.0).terms) == 8

    @pytest.mark.parametrize("amplitude", (1e-6, 1.0, 10.0, 1e6))
    def test_close_small_pair_at_any_amplitude(self, amplitude):
        # the cluster rule is relative to the eigenvalues themselves, so the
        # small pair stays apart at every amplitude; a floor at lambda_max^2
        # grouped it and recovery at t = 0 moved two poles by 0.068
        u = as_hardy(amplitude * hardy_from_terms(CLOSE_SMALL_PAIR))
        dec = eigendecompose(u)
        J2 = float(np.sum(dec.lambdas**2 * dec.nus**2))
        assert abs(J2 - l2_norm(u) ** 2) <= 1e-9 * J2
        assert dec.clusters == tuple((j,) for j in range(8))
        back = recover_rational(dec, 0.0)
        poles = np.array(back.poles())
        assert len(poles) == 8
        assert max(np.min(abs(poles - p)) for p in u.poles()) <= 1e-8
        want = u.evaluate(XS)
        assert np.max(abs(back.evaluate(XS) - want)) <= 1e-10 * np.max(abs(want))

    @pytest.mark.parametrize("amplitude", (1e-6, 10.0, 1e6))
    def test_double_eigenvalue_at_any_amplitude(self, amplitude, double_eig_symbol):
        # the cluster's Takagi residual is half its lambda spread, which the
        # cluster tolerance bounds relative to lambda_max at every amplitude
        u = as_hardy(amplitude * double_eig_symbol)
        dec = eigendecompose(u)
        J2 = float(np.sum(dec.lambdas**2 * dec.nus**2))
        assert abs(J2 - l2_norm(u) ** 2) <= 1e-9 * J2
        assert dec.clusters == ((0, 1),)

    @pytest.mark.parametrize("amplitude", (1.0, 1e-9))
    def test_perturbed_blaschke_coordinates_rejected(self, monkeypatch, generic_m2, amplitude):
        # H_u g is linear in u and g does not depend on the amplitude, so the
        # check scales with u and keeps its teeth below unit amplitude
        exact = hankel._g_coeffs
        monkeypatch.setattr(hankel, "_g_coeffs", lambda u: exact(u) + 1e-6)
        with pytest.raises(NumericalError, match="Blaschke postcondition"):
            eigendecompose(as_hardy(amplitude * generic_m2))

    @pytest.mark.parametrize("lam", (1e-3, 1e3))
    def test_perturbed_blaschke_coordinates_rejected_under_dilation(self, monkeypatch,
                                                                    generic_m2, lam):
        # u0(lam x): the check on K is an L^2 norm relative to ||u||, so a
        # perturbation relative to g keeps failing it at any scale of the poles
        layout, poles, coeffs = generic_m2._flat
        u = _from_flat(layout, poles / lam, coeffs / lam ** np.add(layout, 1))
        eigendecompose(u)
        exact = hankel._g_coeffs

        def perturbed(u):
            g = exact(u)
            return g + 1e-6 * np.abs(g).max()

        monkeypatch.setattr(hankel, "_g_coeffs", perturbed)
        with pytest.raises(NumericalError, match="Blaschke postcondition"):
            eigendecompose(u)

    @pytest.mark.parametrize("amplitude", (1.0, 1e-9))
    def test_rotated_singular_vectors_rejected(self, monkeypatch, generic_m2, amplitude):
        # K is linear in u, so the Takagi residual scales with lambda; an
        # absolute floor would let every unit vector pass at small amplitude
        exact = np.linalg.svd

        def rotated(a, *args, **kwargs):
            U, s, Vh = exact(a, *args, **kwargs)
            c, t = math.cos(0.1), math.sin(0.1)
            U = U.copy()
            U[..., :2] = U[..., :2] @ np.array([[c, -t], [t, c]])
            return U, s, Vh

        monkeypatch.setattr(np.linalg, "svd", rotated)
        with pytest.raises(NumericalError):
            eigendecompose(as_hardy(amplitude * generic_m2))

    def test_no_residue_arithmetic_on_hot_path(self, monkeypatch, eight_poles, mixed_mult):
        calls = []
        mul = RationalFn.__mul__
        apply = rational.hankel_apply

        def counted(fn):
            def wrapper(*args):
                calls.append(fn)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RationalFn, "__mul__", counted(mul))
        monkeypatch.setattr(rational, "hankel_apply", counted(apply))
        for u in (eight_poles, mixed_mult):
            eigendecompose(u)
        assert calls == []
        # the counters do see the generic route
        blaschke(mixed_mult)
        assert mul in calls and apply in calls

    def test_rank_deficient_rejected(self):
        # second channel eleven orders below the first trips the rank guard
        lowrank = hardy_from_terms([(-1j, [1.0]), (-2j, [1e-11])])
        with pytest.raises(PreconditionError, match="rank-deficient"):
            eigendecompose(lowrank)

    @pytest.mark.parametrize("rank_tol", (math.nan, -1.0, 0.0, 1e-13, 1.0, 2.0, math.inf))
    def test_rank_tol_outside_its_range_fails_closed(self, rank_tol):
        # below RANK_RTOL (NaN too) the rank guard would be skipped and lambda = (3e-13, 0.5)
        # come back strongly generic; from 1 on no channel would be kept (an IndexError)
        lowrank = hardy_from_terms([(-1j, [1.0]), (1 - 1j, [3e-12])])
        with pytest.raises(PreconditionError, match="rank-deficient"):
            eigendecompose(lowrank)
        with pytest.raises(InputError, match="rank_tol"):
            eigendecompose(lowrank, rank_tol)

    @pytest.mark.parametrize("rank_tol", (hankel.RANK_RTOL, 1e-4, 0.9))
    def test_rank_tol_inside_its_range(self, rank_tol, generic_m2):
        dec = eigendecompose(generic_m2, rank_tol)
        assert dec.lambdas[0] >= rank_tol * dec.lambdas[-1]
        assert dec.size == (1 if rank_tol == 0.9 else 2)

    def test_lapack_budget(self, monkeypatch):
        # one call each of eigvalsh (the Gram conditioning test), cholesky, svd (Takagi)
        # and solve (the shift): no second factorization of a strongly generic symbol
        u = random_symbol(4, np.random.default_rng(0))
        calls = linalg_calls(monkeypatch)
        dec = eigendecompose(u)
        assert dec.genericity == "strongly_generic"
        assert calls == {"eigvalsh": 1, "cholesky": 1, "svd": 1, "solve": 1}

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_lambda_squared_beyond_the_float_range_fails_typed(self, action):
        # lambda = (5.8e298, 8.6e299): lambda^2 overflows, so no shift matrix exists; the
        # failure is typed whether or not an overflow warning is an error
        huge = hardy_from_terms([(-1j, [1e300]), (1 - 1j, [1e300])])
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(NumericalError, match="float range"):
                eigendecompose(huge)
        dec = eigendecompose(hardy_from_terms([(-1j, [1e150]), (1 - 1j, [1e150])]))
        assert dec.genericity == "strongly_generic"
        assert np.all(np.isfinite(dec.shift))

    @pytest.mark.parametrize("patch, match", [
        ("_g_coeffs", "Blaschke"), ("_concentrate_g", "Takagi"), ("_t_matrix_f", "closure"),
    ])
    def test_nan_fails_each_postcondition(self, monkeypatch, double_eig_symbol, patch, match):
        # a NaN residual compares False with any tolerance: each check must read it as a failure
        original = getattr(hankel, patch)
        monkeypatch.setattr(hankel, patch, lambda *args: np.full_like(original(*args), np.nan))
        with pytest.raises(NumericalError, match=match):
            eigendecompose(double_eig_symbol)


# Per-entry reference assemblies for the broadcasts of `hankel`.
def loop_gram(index):
    n = len(index)
    G = np.zeros((n, n), dtype=complex)
    for a, (p, l) in enumerate(index):
        for b, (q, m) in enumerate(index):
            G[a, b] = (-2j * math.pi * math.comb(l + m - 2, l - 1) * (-1.0) ** (l - 1)
                       / (p - q.conjugate()) ** (l + m - 1))
    return 0.5 * (G + G.conj().T)


def loop_coefficients(u, index):
    coeffs = {t.pole: t.coeffs for t in u.terms}
    C = np.zeros((len(index), len(index)), dtype=complex)
    for a, (p, l) in enumerate(index):
        cs = coeffs.get(p, ())
        for b, (q, r) in enumerate(index):
            if q == p and l + r - 1 <= len(cs):
                C[a, b] = cs[l + r - 2]
    return C


def loop_t_matrix_f(index, g_coords):
    pos = {key: a for a, key in enumerate(index)}
    T = np.zeros((len(index), len(index)), dtype=complex)
    for a, (pole, l) in enumerate(index):
        T[a, a] += pole
        if l >= 2:
            T[pos[(pole, l - 1)], a] += 1.0
        else:
            T[:, a] += g_coords
    return T


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


DOUBLE_POLES = [(-1j, [0.3, 1.0]), (0.8 - 0.6j, [0.5j, -0.7])]
TRIPLE_POLE = [(0.2 - 1.1j, [0.4, -0.3j, 1.0])]


class TestBroadcastAssemblies:
    @pytest.fixture(params=("double", "triple", "mixed_mult", "eight_poles"))
    def symbol(self, request):
        fixed = {"double": DOUBLE_POLES, "triple": TRIPLE_POLE}
        if request.param in fixed:
            return hardy_from_terms(fixed[request.param])
        return request.getfixturevalue(request.param)

    def test_gram(self, symbol):
        assert rel_gap(gram_and_chol(symbol)[0], loop_gram(basis_index(symbol))) <= 1e-13

    def test_coefficients_and_hankel_matrix(self, symbol):
        layout, _, c = symbol._flat
        C = loop_coefficients(symbol, basis_index(symbol))
        assert rel_gap(hankel._coefficient_stack(layout, c), C) <= 1e-13
        want = C @ gram_and_chol(symbol)[0] / (-2j * math.pi)
        assert rel_gap(hankel_matrix(symbol), want) <= 1e-13

    def test_t_matrix_f(self, symbol):
        g = rational._g_coeffs(symbol)
        want = loop_t_matrix_f(basis_index(symbol), g)
        assert rel_gap(hankel._t_matrix_f(symbol, g), want) <= 1e-13

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_inverse_free_k(self, n):
        for seed in range(5):
            u = random_symbol(n, np.random.default_rng(seed))
            L, K = hankel._range_basis(u)
            want = L.conj().T @ hankel_matrix(u) @ np.linalg.inv(L).T
            assert rel_gap(K, want) <= 1e-13, seed

    def test_lambda2_against_mpmath_n8(self):
        # K formed without inverting the Cholesky factor of the Gram matrix
        worst = 0.0
        for seed in range(10):
            u = random_symbol(8, np.random.default_rng(seed))
            want = mp_lambda2(u)
            got = eigendecompose(u).lambdas ** 2
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-8


# Two symbols per pole layout, with the same layout and other poles.
PLAN_LAYOUTS = {
    (0, 0, 0): ([(-1 - 1j, [1.0]), (0.3 - 0.6j, [0.5j]), (1.4 - 1.2j, [-0.7])],
                [(-1.2 - 0.7j, [1.0]), (0.5 - 1.1j, [0.5j]), (1.1 - 0.9j, [-0.7])]),
    (0, 1, 0, 1, 2): ([(-1.0 - 1.0j, [0.5, 1.0]), (1.2 - 0.8j, [0.3, 0.2, 1.0])],
                      [(-0.6 - 1.3j, [0.5, 1.0]), (1.5 - 0.7j, [0.3, 0.2, 1.0])]),
}
DEC_ARRAYS = ("lambdas", "evecs", "betas", "nus", "two_phis", "gammas", "shift")


class TestLayoutPlan:
    @pytest.mark.parametrize("layout", PLAN_LAYOUTS)
    def test_plan_arrays_are_read_only(self, layout):
        arrays = [a for a in hankel._plan(layout) if isinstance(a, np.ndarray)]
        arrays += [a for a in rational._g_gather(layout) if isinstance(a, np.ndarray)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a

    @pytest.mark.parametrize("layout", PLAN_LAYOUTS)
    def test_no_state_leaks_between_symbols_of_one_layout(self, layout):
        terms_a, terms_b = PLAN_LAYOUTS[layout]
        hankel._plan.cache_clear()
        first = eigendecompose(hardy_from_terms(terms_a))
        first_basis = gram_and_chol(first.u)
        other = eigendecompose(hardy_from_terms(terms_b))
        again = eigendecompose(hardy_from_terms(terms_a))
        assert first.u._flat[0] == other.u._flat[0] == layout
        assert hankel._plan.cache_info().currsize == 1   # keyed by the layout alone
        assert not np.array_equal(first.lambdas, other.lambdas)
        for name in DEC_ARRAYS:
            assert np.array_equal(getattr(first, name), getattr(again, name)), name
        for got, want in zip(gram_and_chol(again.u), first_basis):
            assert np.array_equal(got, want)
        assert (first.clusters, first.genericity) == (again.clusters, again.genericity)


class TestTMatrix:
    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_is_stored_shift(self, name, request):
        u = request.getfixturevalue(name)
        dec = eigendecompose(u)
        assert np.array_equal(t_matrix(u, dec).t, dec.shift)
        assert np.array_equal(dec.gammas, np.real(np.diag(dec.shift)))

    def test_corrupted_shift_rejected(self, monkeypatch, generic_m2):
        exact = hankel._t_matrix_f

        def corrupted(u, g_coords):
            T = exact(u, g_coords)
            T[0, 1] += 1e-6 * np.max(np.abs(T))
            return T

        monkeypatch.setattr(hankel, "_t_matrix_f", corrupted)
        with pytest.raises(NumericalError, match="shift closure"):
            eigendecompose(generic_m2)

    @pytest.mark.parametrize("name", (*CROSS_CHECKED, "eight_poles", *DRAWS))
    def test_shift_meets_the_closure_on_every_cluster_block(self, name, request):
        # S(0) - S(0)^* = (i/2pi) beta beta^H on every cluster block to rounding, and
        # Im S_jj is the closed form nu_j^2/4pi to the bit, as the inverse map writes it
        us = ([random_symbol(DRAWS[name], np.random.default_rng(s)) for s in range(10)]
              if name in DRAWS else [request.getfixturevalue(name)])
        for u in us:
            dec = eigendecompose(u)
            S, b = dec.shift, dec.betas
            gap = (S - S.conj().T - 1j / (2 * math.pi) * np.outer(b, b.conj()))[
                hankel._cluster_mask(dec.clusters)]
            assert np.abs(gap).max() <= 8 * np.finfo(float).eps * np.abs(S).max()
            assert np.array_equal(S.diagonal().imag, (1j * dec.nus**2 / (4.0 * math.pi)).imag)

    def test_rank_one_entry(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        tm = t_matrix(soliton_symbol, dec)
        assert abs(tm.t[0, 0] - 1j) < 1e-13

    def test_diagonal_imaginary_parts(self, generic_m2):
        dec = eigendecompose(generic_m2)
        tm = t_matrix(generic_m2, dec)
        want = dec.nus**2 / (4 * math.pi)
        assert np.max(np.abs(np.imag(np.diag(tm.t)) - want)) < 1e-10

    def test_eigenvalues_are_conjugate_poles(self, double_eig_symbol):
        dec = eigendecompose(double_eig_symbol)
        tm = t_matrix(double_eig_symbol, dec)
        ev = sorted(np.linalg.eigvals(tm.t), key=lambda z: z.imag)
        assert abs(ev[0] - 1j) < 1e-8 and abs(ev[1] - 2j) < 1e-8

    def test_adjoint_field(self, generic_m2):
        dec = eigendecompose(generic_m2)
        tm = t_matrix(generic_m2, dec)
        assert np.array_equal(tm.t_star, tm.t.conj().T)

    def test_rank_one_defect(self, generic_m2):
        dec = eigendecompose(generic_m2)
        tm = t_matrix(generic_m2, dec)
        b = dec.betas
        gap = tm.t - (tm.t_star - np.outer(b, np.conj(b)) / (2j * math.pi))
        assert np.max(np.abs(gap)) < 1e-10

    def test_commutator_identity(self, generic_m2):
        dec = eigendecompose(generic_m2)
        tm = t_matrix(generic_m2, dec)
        lam2 = np.diag(dec.lambdas**2)
        lhs = tm.t @ lam2 - lam2 @ tm.t
        b = dec.betas
        n = dec.size
        rhs = np.empty((n, n), dtype=complex)
        for j in range(n):
            rhs[:, j] = (
                -(1 / (2j * math.pi)) * dec.lambdas[j] ** 2 * np.conj(b[j]) * b
                + (1 / (2j * math.pi)) * dec.lambdas[j] * b[j]
                * (dec.lambdas * np.conj(b))
            )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_shift_intertwines_hankel(self, generic_m2):
        dec = eigendecompose(generic_m2)
        tm = t_matrix(generic_m2, dec)
        Lam = np.diag(dec.lambdas)
        gap = tm.t.conj().T @ Lam - Lam @ np.conj(tm.t)
        assert np.max(np.abs(gap)) < 1e-10


DOUBLE_AND_SIMPLE = hardy_from_terms([(-1j, [0.3, 1]), (0.7 - 0.6j, [0.5])])
DOUBLE_TRIPLE_SIMPLE = hardy_from_terms([(-1j, [0.3, 1]), (1 - 0.5j, [0.2, 0.1, 0.5]),
                                         (-0.7 - 1.2j, [0.8])])


def dilated(u, lam):
    """u(lam x): poles p/lam and coefficients c_l lam^-l."""
    layout, poles, coeffs = u._flat
    return _from_flat(layout, poles / lam, coeffs / lam ** np.add(layout, 1))


class TestJacobiScaledGram:
    """The conditioning test reads DGD, D = diag(G)^-1/2, on A = DOUBLE_AND_SIMPLE and
    B = DOUBLE_TRIPLE_SIMPLE: the lambda_j do not move under x -> lam x, though cond G grows
    like a power of lam with the multiplicities."""

    @pytest.mark.parametrize("u,lam", [(DOUBLE_AND_SIMPLE, 1e6), (DOUBLE_TRIPLE_SIMPLE, 1e3),
                                       (DOUBLE_TRIPLE_SIMPLE, 1e6)],
                             ids=("A-1e6", "B-1e3", "B-1e6"))
    def test_dilation_keeps_the_eigenvalues(self, u, lam):
        want = eigendecompose(u).lambdas
        got = eigendecompose(dilated(u, lam)).lambdas
        assert np.abs(got / want - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("u,lam", [(DOUBLE_AND_SIMPLE, 1e-6), (DOUBLE_TRIPLE_SIMPLE, 1e-3),
                                       (DOUBLE_TRIPLE_SIMPLE, 1e-6)],
                             ids=("A-1e-6", "B-1e-3", "B-1e-6"))
    def test_large_poles_still_fail_typed(self, u, lam):
        # the open case: poles and coefficients far above unit scale pass the test on DGD
        # and fail the Blaschke postcondition
        with pytest.raises(NumericalError, match="Blaschke postcondition"):
            eigendecompose(dilated(u, lam))

    def test_cholesky_failure_on_an_admitted_gram_is_typed(self, monkeypatch, generic_m2):
        def failing(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(hankel.np.linalg, "cholesky", failing)
        with pytest.raises(NumericalError, match="ill-conditioned range basis"):
            eigendecompose(generic_m2)


class TestGenericity:
    def test_rank_one(self, soliton_symbol):
        assert eigendecompose(soliton_symbol).genericity == "strongly_generic"

    def test_double_eigenvalue(self, double_eig_symbol):
        assert eigendecompose(double_eig_symbol).genericity == "non_generic"

    def test_generic_only_class(self):
        # equal products lambda^2 nu^2 but distinct lambdas: generic but not
        # strongly generic; build by symmetry u(x) and mirrored coefficients
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = hardy_from_terms([
                (complex(rng.uniform(-1, 1), -rng.uniform(0.5, 1.5)),
                 [complex(rng.normal(), rng.normal())])
                for _ in range(2)
            ])
            try:
                dec = eigendecompose(u)
            except Exception:
                continue
            if dec.genericity != "non_generic":
                assert classify_genericity(dec) == dec.genericity
                break

    def test_eight_pole_draws_are_generic(self):
        # every lambda^2 gap of these draws is 0.44 of the larger value or
        # more; the stored shift's eigenvalues are the conjugated poles, off
        # the clusters in closed form
        for seed in range(30):
            u = random_symbol(8, np.random.default_rng(seed))
            dec = eigendecompose(u)
            assert dec.genericity in ("generic", "strongly_generic"), seed
            want = np.conj(u.poles())
            ev = np.linalg.eigvals(dec.shift)
            err = max(np.min(abs(ev - w)) for w in want)
            assert err <= 1e-8 * max(1.0, np.max(abs(want))), seed

    def test_json_schema(self, double_eig_symbol):
        doc = decomposition_to_json(eigendecompose(double_eig_symbol))
        assert set(doc) == {"lambda", "nu", "two_phi", "gamma", "evecs", "genericity"}
        assert len(doc["evecs"]) == 2 and len(doc["evecs"][0]) == 2
