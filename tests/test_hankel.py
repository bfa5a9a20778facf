import math

import mpmath
import numpy as np
import pytest

from szego import hankel, rational
from szego.errors import NumericalError, PreconditionError
from szego.hankel import (
    build_range_basis,
    classify_genericity,
    decomposition_to_json,
    eigendecompose,
    eigenfunction,
    hankel_matrix,
    t_matrix,
)
from szego.flow import recover_rational
from szego.rational import (
    RationalFn,
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

from conftest import EIGHT_POLES, quad_inner

XS = np.linspace(-3.7, 4.1, 11)
CROSS_CHECKED = ("soliton_symbol", "double_eig_symbol", "generic_m2", "mixed_mult")

# Simple 8-pole symbol whose two smallest lambda^2 (about 1.8e-14 and 7.1e-14)
# fall within one CLUSTER_RTOL * lambda_max^2 band.
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


class TestRangeBasis:
    def test_rank_one_gram(self, soliton_symbol):
        rb = build_range_basis(soliton_symbol)
        assert rb.size == 1
        assert abs(rb.gram[0, 0] - np.pi) < 1e-13

    def test_two_pole_gram_vs_quadrature(self, double_eig_symbol):
        rb = build_range_basis(double_eig_symbol)
        assert rb.size == 2
        f0, f1 = rb.basis_fn(0), rb.basis_fn(1)
        assert abs(rb.gram[0, 1] - quad_inner(f0, f1)) < 1e-9

    def test_double_pole_enumeration(self):
        u = hardy_from_terms([(-1j, [0.3, 1.0])])
        rb = build_range_basis(u)
        assert [l for (_p, l) in rb.index] == [1, 2]

    def test_mixed_multiplicity_enumeration(self, mixed_mult):
        rb = build_range_basis(mixed_mult)
        assert [l for (_p, l) in rb.index] == [1, 2, 1, 2, 3, 1]

    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_closed_form_matches_residue_arithmetic(self, name, request):
        u = request.getfixturevalue(name)
        rb = build_range_basis(u)
        for a in range(rb.size):
            for b in range(rb.size):
                want = inner_product(rb.basis_fn(a), rb.basis_fn(b))
                assert abs(rb.gram[a, b] - want) <= 1e-12 * abs(want)

    def test_near_merging_poles_rejected(self):
        u = hardy_from_terms([(-1j, [1.0]), (1e-7 - 1j, [1.0])])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            build_range_basis(u)

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            build_range_basis(zero())


class TestHankelMatrix:
    def test_rank_one_value(self, soliton_symbol):
        rb = build_range_basis(soliton_symbol)
        M = hankel_matrix(soliton_symbol, rb)
        assert abs(M[0, 0] - 0.5j) < 1e-14

    def test_linear_in_symbol(self):
        for C in (2.0, -0.7):
            u = simple_pole(C, -1j)
            M = hankel_matrix(u, build_range_basis(u))
            assert abs(M[0, 0] - 0.5j * C) < 1e-13

    def test_phase_rotation(self, generic_m2):
        rb = build_range_basis(generic_m2)
        M = hankel_matrix(generic_m2, rb)
        theta = 0.77
        ur = as_hardy(np.exp(1j * theta) * generic_m2)
        Mr = hankel_matrix(ur, build_range_basis(ur))
        assert np.max(np.abs(Mr - np.exp(1j * theta) * M)) < 1e-12

    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_closed_form_matches_hankel_action(self, name, request):
        u = request.getfixturevalue(name)
        rb = build_range_basis(u)
        M = hankel_matrix(u, rb)
        basis = [rb.basis_fn(b).evaluate(XS) for b in range(rb.size)]
        for a in range(rb.size):
            want = hankel_apply(u, rb.basis_fn(a)).evaluate(XS)
            got = sum(M[b, a] * basis[b] for b in range(rb.size))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_symbol_outside_basis_rejected(self, generic_m2, soliton_symbol):
        with pytest.raises(NumericalError, match="range leakage"):
            hankel_matrix(generic_m2, build_range_basis(soliton_symbol))

    def test_symmetry_identity(self, generic_m2):
        rb = build_range_basis(generic_m2)
        for a in range(rb.size):
            for b in range(rb.size):
                lhs = inner_product(hankel_apply(generic_m2, rb.basis_fn(a)),
                                    rb.basis_fn(b))
                rhs = inner_product(hankel_apply(generic_m2, rb.basis_fn(b)),
                                    rb.basis_fn(a))
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
        g_coords = dec.rb.chol.conj().T @ np.array(
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

    def test_perturbed_blaschke_coordinates_rejected(self, monkeypatch, generic_m2):
        exact = hankel._g_coeffs
        monkeypatch.setattr(hankel, "_g_coeffs", lambda u: exact(u) + 1e-6)
        with pytest.raises(NumericalError, match="Blaschke postcondition"):
            eigendecompose(generic_m2)

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


# Per-entry reference assemblies for the broadcasts of `hankel`.
def loop_gram(rb):
    G = np.zeros((rb.size, rb.size), dtype=complex)
    for a, (p, l) in enumerate(rb.index):
        for b, (q, m) in enumerate(rb.index):
            G[a, b] = (-2j * math.pi * math.comb(l + m - 2, l - 1) * (-1.0) ** (l - 1)
                       / (p - q.conjugate()) ** (l + m - 1))
    return 0.5 * (G + G.conj().T)


def loop_coefficients(u, rb):
    coeffs = {t.pole: t.coeffs for t in u.terms}
    C = np.zeros((rb.size, rb.size), dtype=complex)
    for a, (p, l) in enumerate(rb.index):
        cs = coeffs.get(p, ())
        for b, (q, r) in enumerate(rb.index):
            if q == p and l + r - 1 <= len(cs):
                C[a, b] = cs[l + r - 2]
    return C


def loop_t_matrix_f(rb, g_coords):
    pos = {key: a for a, key in enumerate(rb.index)}
    T = np.zeros((rb.size, rb.size), dtype=complex)
    for a, (pole, l) in enumerate(rb.index):
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
        rb = build_range_basis(symbol)
        assert rel_gap(rb.gram, loop_gram(rb)) <= 1e-13

    def test_coefficients_and_hankel_matrix(self, symbol):
        rb = build_range_basis(symbol)
        C = loop_coefficients(symbol, rb)
        assert rel_gap(hankel._coefficient_matrix(symbol, rb), C) <= 1e-13
        assert rel_gap(hankel_matrix(symbol, rb), C @ rb.gram / (-2j * math.pi)) <= 1e-13

    def test_coefficients_on_a_larger_basis(self, mixed_mult):
        # the symbol's own poles and a basis that also holds another pole
        u = hardy_from_terms([(-1.5j, [0.3, 0.2])])
        rb = build_range_basis(mixed_mult)
        assert np.array_equal(hankel._coefficient_matrix(u, rb), loop_coefficients(u, rb))

    def test_t_matrix_f(self, symbol):
        rb = build_range_basis(symbol)
        g = rational._g_coeffs(symbol)
        assert rel_gap(hankel._t_matrix_f(rb, g), loop_t_matrix_f(rb, g)) <= 1e-13

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_inverse_free_k(self, n):
        for seed in range(5):
            u = random_symbol(n, np.random.default_rng(seed))
            svd = hankel._takagi_svd(u)
            L = svd.rb.chol
            want = L.conj().T @ svd.M @ np.linalg.inv(L).T
            assert rel_gap(svd.K, want) <= 1e-13, seed

    def test_lambda2_against_mpmath_n8(self):
        # K formed without inverting the Cholesky factor of the Gram matrix
        worst = 0.0
        for seed in range(10):
            u = random_symbol(8, np.random.default_rng(seed))
            want = mp_lambda2(u)
            got = eigendecompose(u).lambdas ** 2
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-8


class TestTMatrix:
    @pytest.mark.parametrize("name", CROSS_CHECKED)
    def test_is_stored_shift(self, name, request):
        u = request.getfixturevalue(name)
        dec = eigendecompose(u)
        assert np.array_equal(t_matrix(u, dec).t, dec.shift)
        assert np.array_equal(dec.gammas, np.real(np.diag(dec.shift)))

    def test_corrupted_shift_rejected(self, monkeypatch, generic_m2):
        exact = hankel._t_matrix_f

        def corrupted(rb, g_coords):
            T = exact(rb, g_coords)
            T[0, 1] += 1e-6 * np.max(np.abs(T))
            return T

        monkeypatch.setattr(hankel, "_t_matrix_f", corrupted)
        with pytest.raises(NumericalError, match="shift closure"):
            eigendecompose(generic_m2)

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

    def test_json_schema(self, double_eig_symbol):
        doc = decomposition_to_json(eigendecompose(double_eig_symbol))
        assert set(doc) == {"lambda", "nu", "two_phi", "gamma", "evecs", "genericity"}
        assert len(doc["evecs"]) == 2 and len(doc["evecs"][0]) == 2
