import math

import numpy as np
import pytest

from szego import actionangle, flow
from szego.actionangle import (
    ActionAngleCoords,
    _coords_distance,
    chi,
    chi_inverse,
    coords_from_json,
    coords_to_json,
    hierarchy_flow,
    hierarchy_vector_field,
    szego_flow,
    toroidal_cylinder_check,
)
from szego.asymptotics import soliton_params_from_spectrum
from szego.errors import InputError, NumericalError, PreconditionError
from szego.flow import recover_rational
from szego.hankel import classify_genericity, eigendecompose
from szego.rational import (
    HardyRational,
    as_hardy,
    hardy_from_terms,
    inner_product,
    simple_pole,
    szego_project,
)
from szego.sampling import random_coords, random_generic, random_strongly_generic, random_symbol

from conftest import linalg_calls


def l2_gap(a, b):
    d = a - b
    return math.sqrt(abs(inner_product(d, d)))


def counted_moments(monkeypatch):
    """Count the calls of flow._from_moments, the recovery from contour moments."""
    calls = []
    inner = flow._from_moments

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(flow, "_from_moments", wrapper)
    return calls


def coords_gap(a: ActionAngleCoords, b: ActionAngleCoords) -> float:
    worst = 0.0
    for x, y in zip(a.actions_i + a.actions_lambda + a.gammas,
                    b.actions_i + b.actions_lambda + b.gammas):
        worst = max(worst, abs(x - y))
    for x, y in zip(a.angles, b.angles):
        d = abs(x - y) % (2 * math.pi)
        worst = max(worst, min(d, 2 * math.pi - d))
    return worst


class TestChi:
    def test_rank_one_values(self, soliton_symbol):
        c = chi(eigendecompose(soliton_symbol))
        assert abs(c.actions_i[0] - 2 * math.pi) < 1e-12
        assert abs(c.actions_lambda[0] - math.pi) < 1e-12
        assert abs(c.angles[0] - math.pi / 2) < 1e-12
        assert abs(c.gammas[0]) < 1e-12

    def test_phase_rotation_shifts_angles_only(self, generic_m2):
        # e^{i theta} u transports the eigenvectors by e^{i theta/2}, so the
        # stored angles 2 arg(g, e_j) all move by -theta; actions and
        # generalized angles are fixed.  (Check: C e^{i a}/(x+i) carries
        # 2 phi = pi/2 - a, anchored by the rank-one closed form.)
        theta = 0.61
        c0 = chi(eigendecompose(generic_m2))
        c1 = chi(eigendecompose(as_hardy(np.exp(1j * theta) * generic_m2)))
        for a, b in zip(c1.angles, c0.angles):
            d = (a - b + theta) % (2 * math.pi)
            assert min(d, 2 * math.pi - d) < 1e-10
        assert np.allclose(c1.actions_i, c0.actions_i)
        assert np.allclose(c1.actions_lambda, c0.actions_lambda)
        assert np.allclose(c1.gammas, c0.gammas)
        one = chi(eigendecompose(simple_pole(np.exp(1j * 0.9) * 1.7, -1j)))
        d = (one.angles[0] - (math.pi / 2 - 0.9)) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) < 1e-12

    def test_domain_membership(self):
        rng = np.random.default_rng(2)
        u = random_generic(3, rng)
        c = chi(eigendecompose(u))
        assert all(v > 0 for v in c.actions_i)
        assert all(b > a for a, b in zip(c.actions_lambda, c.actions_lambda[1:]))

    def test_nongeneric_rejected(self, double_eig_symbol):
        with pytest.raises(PreconditionError, match="generic"):
            chi(eigendecompose(double_eig_symbol))


def loop_shift_matrix(coords):
    """The inverse map's shift matrix by its per-entry formula, in the basis e^{i phi_j} e_j."""
    lam, nu, two_phi = coords.lambdas(), coords.nus(), np.array(coords.angles)
    n = coords.size
    T = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if k == j:
                T[j, j] = coords.gammas[j] + 1j * nu[j] ** 2 / (4.0 * math.pi)
            else:
                T[k, j] = (lam[j] * nu[j] * nu[k] / (2j * math.pi)
                           * (lam[j] - lam[k] * np.exp(1j * (two_phi[j] - two_phi[k])))
                           / (lam[k] ** 2 - lam[j] ** 2))
    return T


class TestChiInverse:
    def test_rank_one_roundtrip(self, soliton_symbol):
        c = chi(eigendecompose(soliton_symbol))
        u = chi_inverse(c)
        assert l2_gap(u, soliton_symbol) < 1e-9

    def test_rank_one_closed_form_pole(self):
        c = ActionAngleCoords((2 * math.pi,), (math.pi,), (1.0,), (0.7,))
        u = chi_inverse(c)
        nu2 = c.actions_i[0] / (2 * (c.actions_lambda[0] / (4 * math.pi)))
        want_pole = 0.7 - 1j * nu2 / (4 * math.pi)
        assert abs(u.terms[0].pole - want_pole) < 1e-10

    def test_is_the_flow_recovery_at_time_zero(self, soliton_symbol, generic_m2):
        # the S(0) that chi_inverse assembles from chi(dec) is the flow's S(0),
        # so both pair the same matrix; the worst gap, 5.0e-13, is at N = 8
        symbols = [soliton_symbol, generic_m2] + [
            random_symbol(n, np.random.default_rng(s)) for n in (2, 3, 4, 8) for s in range(3)]
        for u0 in symbols:
            dec = eigendecompose(u0)
            (want,) = flow._recover_many(dec, [0.0])
            scale = 3.3 * max(map(abs, want.poles()))
            xs = np.linspace(-scale, scale, 41)
            ref = want.evaluate(xs)
            got = chi_inverse(chi(dec)).evaluate(xs)
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_random_coords_roundtrip(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            c = random_coords(n, rng)
            u = chi_inverse(c)
            back = chi(eigendecompose(u))
            assert coords_gap(c, back) < 1e-7

    def test_symbol_roundtrip(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            u = random_generic(n, rng)
            u2 = chi_inverse(chi(eigendecompose(u)))
            assert l2_gap(u, u2) < 1e-7

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_entry_shift_matrix(self, n):
        # the flow's S(0) assembly against the per-entry formula and its pairing
        c = random_coords(n, np.random.default_rng(n))
        T = loop_shift_matrix(c)
        nu = c.nus()
        m = c.lambdas() * nu * np.exp(1j * np.array(c.angles))
        want = flow._from_pairing(np.conj(T)[None], np.conj(m)[None], nu[None])[0]
        xs = np.linspace(-4.0, 4.0, 33)
        ref = want.evaluate(xs)
        got = chi_inverse(c).evaluate(xs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_random_coords_roundtrip_n8(self, monkeypatch):
        # separated poles: residues from the eigendecomposition, no moments
        moments = counted_moments(monkeypatch)
        worst = 0.0
        for seed in range(20):
            c = random_coords(8, np.random.default_rng(seed))
            back = chi(eigendecompose(chi_inverse(c)))
            worst = max(worst, _coords_distance(c, back))
        assert worst <= 5e-12
        assert not moments

    def test_double_pole_through_one_fit(self, monkeypatch):
        u = hardy_from_terms([(-1j, [1.0]), (0.5 - 1.2j, [0.2, 0.7])])
        dec = eigendecompose(u)
        assert dec.genericity == "strongly_generic"
        moments = counted_moments(monkeypatch)
        u2 = chi_inverse(chi(dec))
        assert len(moments) == 1
        assert [t.multiplicity for t in u2.terms] == [1, 2]
        assert l2_gap(u, u2) <= 1e-10

    def test_mixed_multiplicity_roundtrip(self, mixed_mult):
        # simple, double and triple pole: the inverse map recovers all three
        # multiplicities from contour moments, so the range basis stays conditioned
        u2 = chi_inverse(chi(eigendecompose(mixed_mult)))
        assert [t.multiplicity for t in u2.terms] == [2, 3, 1]
        norm = math.sqrt(inner_product(mixed_mult, mixed_mult).real)
        assert l2_gap(mixed_mult, u2) <= 1e-10 * norm

    def test_coords_validation(self):
        with pytest.raises(InputError):
            ActionAngleCoords((1.0,), (-1.0,), (0.0,), (0.0,))
        with pytest.raises(InputError):
            ActionAngleCoords((1.0, 1.0), (2.0, 1.0), (0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", (math.nan, math.inf))
    def test_non_finite_coords(self, field, value):
        # caught before the shift matrix reaches eigvals
        c = random_coords(2, np.random.default_rng(14))
        parts = [c.actions_i, c.actions_lambda, c.angles, c.gammas]
        parts[field] = (parts[field][0], value)
        with pytest.raises(InputError, match="coordinates must be finite"):
            chi_inverse(ActionAngleCoords(*parts))

    def test_pairing_at_the_float_range_top_fails_typed(self):
        # gammas at +-1e308: the eigenvalues' differences overflow in the near-pair scan,
        # and under error::RuntimeWarning only the typed error may leave chi_inverse
        c = ActionAngleCoords((1.0, 1.0), (1.0, 2.0), (0.3, 1.0), (1e308, -1e308))
        with pytest.raises(NumericalError, match="on or above the real line"):
            chi_inverse(c)

    def test_lapack_budget(self, monkeypatch):
        # the pairing's one eig and one residue solve, then the round trip's decomposition
        c = random_coords(4, np.random.default_rng(0))
        calls = linalg_calls(monkeypatch)
        chi_inverse(c)
        assert calls == {"eig": 1, "solve": 2, "eigvalsh": 1, "cholesky": 1, "svd": 1}

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_inadmissible_shift_matrix_raises(self, monkeypatch, n):
        # conj(S0) reflects the eigenvalues of S0 across the real line, so
        # every pole of the reconstruction would lie in the upper half-plane
        real = actionangle._assemble_s
        monkeypatch.setattr(actionangle, "_assemble_s", lambda *a: real(*a).conj())
        with pytest.raises(NumericalError, match="on or above the real line"):
            chi_inverse(random_coords(n, np.random.default_rng(n)))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(9)
        c = random_coords(2, rng)
        back = coords_from_json(coords_to_json(c))
        assert coords_gap(c, back) == 0.0


class TestCoordsDistance:
    def test_angles_wrap_across_zero(self):
        a = ActionAngleCoords((1.0, 2.0), (1.0, 3.0), (0.01, math.pi), (0.5, -0.5))
        b = ActionAngleCoords((1.0, 2.0), (1.0, 3.0), (2 * math.pi - 0.02, math.pi), (0.5, -0.5))
        assert _coords_distance(a, b) == pytest.approx(0.03, abs=1e-14)
        assert _coords_distance(b, a) == pytest.approx(0.03, abs=1e-14)

    def test_actions_and_gammas_are_relative_to_max_one_and_the_largest(self):
        small = ActionAngleCoords((0.1,), (0.2,), (1.0,), (0.3,))
        assert _coords_distance(small, ActionAngleCoords((0.1,), (0.2,), (1.0,), (0.35,))) \
            == pytest.approx(0.05, abs=1e-15)   # scale max(1, 0.3) = 1: an absolute gap
        large = ActionAngleCoords((4.0,), (10.0,), (1.0,), (-20.0,))
        # the scale is the first argument's largest magnitude, here |gamma| = 20
        assert _coords_distance(large, ActionAngleCoords((4.0,), (11.0,), (1.0,), (-20.0,))) \
            == pytest.approx(1.0 / 20.0, rel=1e-15)

    def test_size_mismatch_is_infinite(self):
        one = ActionAngleCoords((1.0,), (1.0,), (0.0,), (0.0,))
        two = ActionAngleCoords((1.0, 1.0), (1.0, 2.0), (0.0, 0.0), (0.0, 0.0))
        assert _coords_distance(one, two) == math.inf

    def test_matches_a_loop_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 8):
            a, b = random_coords(n, rng), random_coords(n, rng)
            scale = max(1.0, *map(abs, a.actions_i + a.actions_lambda + a.gammas))
            want = max(abs(x - y) / scale for x, y in zip(a.actions_i + a.actions_lambda + a.gammas,
                                                          b.actions_i + b.actions_lambda + b.gammas))
            for x, y in zip(a.angles, b.angles):
                d = abs(x - y) % (2 * math.pi)
                want = max(want, min(d, 2 * math.pi - d))
            assert _coords_distance(a, b) == want


class TestFlowsInCoordinates:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(10)
        c = random_coords(3, rng)
        assert hierarchy_flow(c, 2, 0.0) == c

    def test_flow_commutation(self):
        rng = np.random.default_rng(11)
        c = random_coords(3, rng)
        a = hierarchy_flow(hierarchy_flow(c, 2, 0.7), 3, 1.3)
        b = hierarchy_flow(hierarchy_flow(c, 3, 1.3), 2, 0.7)
        assert coords_gap(a, b) < 1e-14

    def test_rank_one_phase_matches_soliton(self, soliton_symbol):
        dec = eigendecompose(soliton_symbol)
        c0 = chi(dec)
        t = 3.1
        ct = szego_flow(c0, t)
        lam2 = c0.actions_lambda[0] / (4 * math.pi)
        want = (c0.angles[0] + t * lam2) % (2 * math.pi)
        assert abs(ct.angles[0] - want) < 1e-12

    def test_pipelines_coincide(self):
        rng = np.random.default_rng(12)
        u = random_generic(2, rng)
        dec = eigendecompose(u)
        c0 = chi(dec)
        for t in (0.5, 2.0, 10.0):
            ua = recover_rational(dec, t)
            ub = chi_inverse(szego_flow(c0, t))
            assert l2_gap(ua, ub) < 1e-7

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
    def test_non_finite_time(self, t):
        c = random_coords(2, np.random.default_rng(15))
        with pytest.raises(InputError, match="time must be finite"):
            hierarchy_flow(c, 3, t)
        with pytest.raises(InputError, match="time must be finite"):
            szego_flow(c, t)

    def test_n_validation(self):
        rng = np.random.default_rng(13)
        c = random_coords(1, rng)
        with pytest.raises(PreconditionError):
            hierarchy_flow(c, 1, 1.0)

    @pytest.mark.parametrize("n", (2.5, 2.0, "2", None))
    def test_order_must_be_an_integer(self, n, soliton_symbol):
        # n = 2.5 flowed coordinates of a flow that does not exist, and the field raised a
        # bare TypeError
        c = random_coords(1, np.random.default_rng(13))
        with pytest.raises(InputError, match="hierarchy order must be an integer"):
            hierarchy_flow(c, n, 1.0)
        with pytest.raises(InputError, match="hierarchy order must be an integer"):
            hierarchy_vector_field(soliton_symbol, n)
        assert hierarchy_flow(c, np.int64(2), 1.0) == hierarchy_flow(c, 2, 1.0)


class TestHierarchyVectorField:
    def test_soliton_time_derivative_anchor(self, soliton_symbol):
        # d/dt of the exact soliton at t = 0 equals twice the n = 2 field
        X = hierarchy_vector_field(soliton_symbol, 2)
        w = szego_project(soliton_symbol * soliton_symbol.conj_reflect()
                          * soliton_symbol)
        xs = np.linspace(-3, 3, 9)
        want = -1j * w.evaluate(xs)
        assert np.max(np.abs(2 * X.evaluate(xs) - want)) < 1e-13

    def test_matches_projected_cubic_field(self, generic_m2):
        X = hierarchy_vector_field(generic_m2, 2)
        w = szego_project(generic_m2 * generic_m2.conj_reflect() * generic_m2)
        xs = np.linspace(-3, 3, 9)
        assert np.max(np.abs(2 * X.evaluate(xs) + 1j * w.evaluate(xs))) < 1e-12

    def test_cubic_homogeneity(self, soliton_symbol):
        s = 0.37
        X1 = hierarchy_vector_field(soliton_symbol, 2)
        Xs = hierarchy_vector_field(as_hardy(s * soliton_symbol), 2)
        xs = np.linspace(-3, 3, 9)
        assert np.max(np.abs(Xs.evaluate(xs) - s**3 * X1.evaluate(xs))) < 1e-14

    @pytest.mark.parametrize("name", ["generic_m2", "mixed_mult"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_returns_a_hardy_element(self, name, n, request):
        u = request.getfixturevalue(name)
        assert type(hierarchy_vector_field(u, n)) is HardyRational

    @pytest.mark.parametrize("n", [2, 3])
    def test_euler_step_rates(self, n):
        rng = np.random.default_rng(14)
        u = random_generic(2, rng, lam_ratio=0.45)
        h = 1e-6
        dec = eigendecompose(u)
        c0 = chi(dec)
        u1 = as_hardy(u + h * hierarchy_vector_field(u, n))
        d1 = eigendecompose(u1, rank_tol=1e-4)
        idx = [int(np.argmin(np.abs(d1.lambdas - l))) for l in dec.lambdas]
        lam2 = dec.lambdas**2
        for j, k in enumerate(idx):
            dphi = ((d1.two_phis[k] - c0.angles[j] + math.pi) % (2 * math.pi)) - math.pi
            want_phi = h * lam2[j] ** (n - 1) / 2
            assert abs(dphi / want_phi - 1) < 1e-3
            dgam = d1.gammas[k] - c0.gammas[j]
            want_gam = h * (n - 1) * lam2[j] ** (n - 1) * dec.nus[j] ** 2 / (4 * math.pi)
            assert abs(dgam / want_gam - 1) < 1e-3


class TestGenericClass:
    def test_equal_speeds_are_generic_not_strongly(self):
        # equal actions 2 lam^2 nu^2 give equal soliton speeds (test_acceptance's
        # _generic_only_m2): chi is defined there, soliton resolution is not
        coords = ActionAngleCoords((4.0, 4.0), (4 * math.pi * 0.25, 4 * math.pi * 0.49),
                                   (0.3, 4.0), (0.1, -0.4))
        dec = eigendecompose(chi_inverse(coords))
        assert dec.genericity == classify_genericity(dec) == "generic"
        assert _coords_distance(chi(dec), coords) <= 1e-14
        with pytest.raises(PreconditionError, match="strongly generic"):
            soliton_params_from_spectrum(dec)
        assert toroidal_cylinder_check(dec, dec)


class TestToroidalCylinder:
    def test_reflexive(self, generic_m2):
        dec = eigendecompose(generic_m2)
        assert toroidal_cylinder_check(dec, dec)

    def test_along_flow(self, generic_m2):
        dec = eigendecompose(generic_m2)
        u7 = recover_rational(dec, 7.3)
        assert toroidal_cylinder_check(dec, eigendecompose(u7))

    def test_scaling_leaves_cylinder(self, generic_m2):
        dec = eigendecompose(generic_m2)
        dec2 = eigendecompose(as_hardy(2.0 * generic_m2))
        assert not toroidal_cylinder_check(dec, dec2)
