"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 (oracle equivalence at L = 200, M = 2^14, dt = 1e-3 with L2
error <= 1e-5) is asserted exactly as stated.  The measured floor of the
comparison at that box size is a few 1e-5 (periodization of 1/x-tailed
data; see the oracle module notes), so the l2 assertion documents an
honest failure rather than a loosened tolerance.
"""

import math
import time

import numpy as np

from szego.actionangle import (
    ActionAngleCoords,
    chi,
    chi_inverse,
    hierarchy_vector_field,
    szego_flow,
)
from szego.asymptotics import growth_fit, remainder_norms
from szego.flow import recover_rational, s_matrix, spectral_conserved
from szego.hankel import eigendecompose
from szego.oracle import compare, self_convergence
from szego.rational import (
    as_hardy,
    h_half_norm,
    hardy_from_terms,
    inner_product,
    simple_pole,
)
from szego.sampling import (
    random_coords,
    random_generic,
    random_strongly_generic,
    random_symbol,
)

DOUBLE_EIG = hardy_from_terms([(-1j, [2.0]), (-2j, [-4.0])])


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.monotonic() - t0:5.1f}s) "
          f"{name}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_soliton_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(25):
        C = complex(rng.normal(), rng.normal())
        if abs(C) < 0.1:
            C += 0.5
        p = complex(rng.uniform(-2, 2), -rng.uniform(0.3, 2.0))
        u = simple_pole(C, p)
        dec = eigendecompose(u)
        omega = abs(C) ** 2 / (4 * p.imag**2)
        c = abs(C) ** 2 / (-2 * p.imag)
        for t in rng.uniform(-10, 10, 10):
            ut = recover_rational(dec, float(t))
            worst = max(
                worst,
                abs(ut.terms[0].pole - (p + c * t)),
                abs(ut.terms[0].coeffs[0] - C * np.exp(-1j * omega * t)),
            )
    _report(1, "soliton exactness", worst <= 1e-10,
            f"max componentwise error {worst:.2e} (<= 1e-10)", t0)


def test_criterion_02_double_eigenvalue_constant():
    t0 = time.monotonic()
    dec = eigendecompose(DOUBLE_EIG)
    gap = float(np.max(np.abs(dec.lambdas**2 - 1.0 / 9.0)))
    ok = gap <= 1e-12 and len(dec.clusters) == 1 and len(dec.clusters[0]) == 2
    _report(2, "double eigenvalue 1/9", ok,
            f"|lambda^2 - 1/9| = {gap:.2e} (<= 1e-12), "
            f"clusters {dec.clusters}", t0)


def _generic_only_m2():
    # equal actions 2 lam^2 nu^2 force equal soliton speeds: generic but
    # not strongly generic, built through the inverse spectral map; actions
    # sized so both poles sit deep enough for the reference box
    coords = ActionAngleCoords(
        (4.0, 4.0),
        (4 * math.pi * 0.25, 4 * math.pi * 0.49),
        (0.3, 4.0),
        (0.1, -0.4),
    )
    return chi_inverse(coords)


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    sgen = hardy_from_terms([(-1j, [1.0]), (0.8 - 0.7j, [0.5 + 0.3j])])
    gen = _generic_only_m2()
    assert eigendecompose(sgen).genericity == "strongly_generic"
    assert eigendecompose(gen).genericity == "generic"
    assert eigendecompose(DOUBLE_EIG).genericity == "non_generic"
    errs = {}
    for name, u in (("strongly_generic", sgen), ("generic", gen),
                    ("non_generic", DOUBLE_EIG)):
        errs[name] = compare(u, 1.0, 200.0, 2**14, 1e-3)["l2_error"]
    sc = self_convergence(sgen, 1.0, 200.0, 2**13, 0.02)
    order_ok = 3.5 < sc["order"] < 4.5
    worst = max(errs.values())
    detail = (", ".join(f"{k}: {v:.2e}" for k, v in errs.items())
              + f"; RK4 order {sc['order']:.2f}"
              + " [l2 <= 1e-5 required; measured floor of the periodic "
                "representation at L=200 is above it]")
    _report(3, "oracle equivalence", worst <= 1e-5 and order_ok, detail, t0)


def test_criterion_04_conservation():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    times = np.linspace(-100.0, 100.0, 201)
    worst = 0.0
    for _ in range(10):
        u = random_symbol(3, rng)
        try:
            dec = eigendecompose(u)
        except Exception:
            continue
        J0 = spectral_conserved(dec, 4)
        h0 = h_half_norm(u)
        for t in times:
            ut = recover_rational(dec, float(t))
            Jt = spectral_conserved(eigendecompose(ut), 4)
            worst = max(worst, max(abs(a - b) / abs(b) for a, b in zip(Jt, J0)))
            worst = max(worst, abs(h_half_norm(ut) - h0) / h0)
    _report(4, "conservation over [-100, 100]", worst <= 1e-9,
            f"max relative drift of J_2..J_8, H^1/2: {worst:.2e} (<= 1e-9)", t0)


def test_criterion_05_resolution_rate():
    t0 = time.monotonic()
    rng = np.random.default_rng(105)
    times = np.geomspace(1e2, 1e4, 101)
    exps = []
    for _ in range(5):
        u = random_strongly_generic(2, rng)
        rep = remainder_norms(u, times, [0.0, 0.5, 1.0])
        exps.extend(rep.exponents)
    ok = all(-1.15 <= e <= -0.85 for e in exps)
    _report(5, "soliton resolution rate", ok,
            f"exponents within [{min(exps):.3f}, {max(exps):.3f}] "
            f"(required within [-1.15, -0.85])", t0)


def test_criterion_06_growth_law():
    t0 = time.monotonic()
    times = np.geomspace(1e2, 1e4, 33)
    details = []
    ok = True
    for s in (0.75, 1.0, 2.0):
        g = growth_fit(DOUBLE_EIG, s, times)
        want = 2 * s - 1
        ok = ok and abs(g["slope"] - want) <= 0.05 and g["h_half_drift"] <= 1e-8
        details.append(f"s={s:g}: slope {g['slope']:.3f} (want {want:g}), "
                       f"H1/2 drift {g['h_half_drift']:.1e}")
    _report(6, "Sobolev growth law", ok, "; ".join(details), t0)


def test_criterion_07_action_angle_roundtrips():
    t0 = time.monotonic()
    rng = np.random.default_rng(107)
    worst_c, worst_s = 0.0, 0.0
    for k in range(50):
        n = 1 + k % 4
        coords = random_coords(n, rng)
        u = chi_inverse(coords)
        back = chi(eigendecompose(u))
        gap = 0.0
        for a, b in zip(coords.actions_i + coords.actions_lambda + coords.gammas,
                        back.actions_i + back.actions_lambda + back.gammas):
            gap = max(gap, abs(a - b))
        for a, b in zip(coords.angles, back.angles):
            d = abs(a - b) % (2 * math.pi)
            gap = max(gap, min(d, 2 * math.pi - d))
        worst_c = max(worst_c, gap)
    for k in range(50):
        n = 1 + k % 4
        u = random_generic(n, rng)
        u2 = chi_inverse(chi(eigendecompose(u)))
        diff = u2 - u
        worst_s = max(worst_s, math.sqrt(abs(inner_product(diff, diff))))
    ok = worst_c <= 1e-7 and worst_s <= 1e-7
    _report(7, "action-angle round trips", ok,
            f"coords gap {worst_c:.2e}, symbol L2 gap {worst_s:.2e} (<= 1e-7)",
            t0)


def test_criterion_08_pipeline_cross_validation():
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(5):
        u = random_generic(2, rng)
        dec = eigendecompose(u)
        c0 = chi(dec)
        for t in (0.5, 2.0, 10.0):
            ua = recover_rational(dec, t)
            ub = chi_inverse(szego_flow(c0, t))
            diff = ua - ub
            worst = max(worst, math.sqrt(abs(inner_product(diff, diff))))
    _report(8, "coordinate flow vs explicit flow", worst <= 1e-7,
            f"max L2 gap {worst:.2e} (<= 1e-7)", t0)


def test_criterion_09_structural_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(109)
    worst = {"duality": 0.0, "rank_one": 0.0, "commutator": 0.0,
             "imdiag": 0.0, "dsdt": 0.0}
    count = 0
    while count < 20:
        n = 1 + count % 3
        u = random_symbol(n, rng)
        try:
            dec = eigendecompose(u)
        except Exception:
            continue
        count += 1
        tt = float(rng.uniform(-5, 5))
        fm = s_matrix(dec, tt)
        ut = recover_rational(dec, tt)
        poles = sorted((p for term in ut.terms for p in [term.pole] * term.multiplicity),
                       key=lambda z: (z.real, z.imag))
        eigs = sorted(np.conj(np.linalg.eigvals(fm.s)),
                      key=lambda z: (z.real, z.imag))
        worst["duality"] = max(worst["duality"],
                               max(abs(a - b) for a, b in zip(poles, eigs)))
        w = fm.w_diag * dec.betas
        gap = fm.s - (fm.s.conj().T - np.outer(w, np.conj(w)) / (2j * math.pi))
        worst["rank_one"] = max(worst["rank_one"], float(np.max(np.abs(gap))))
        lam2 = np.diag(dec.lambdas**2)
        lhs = dec.shift @ lam2 - lam2 @ dec.shift
        b = dec.betas
        rhs = np.empty_like(lhs)
        for j in range(dec.size):
            rhs[:, j] = (-(1 / (2j * math.pi)) * dec.lambdas[j] ** 2
                         * np.conj(b[j]) * b
                         + (1 / (2j * math.pi)) * dec.lambdas[j] * b[j]
                         * (dec.lambdas * np.conj(b)))
        worst["commutator"] = max(worst["commutator"],
                                  float(np.max(np.abs(lhs - rhs))))
        worst["imdiag"] = max(worst["imdiag"], float(np.max(np.abs(
            np.imag(np.diag(dec.shift)) - dec.nus**2 / (4 * math.pi)))))
        h = 1e-5
        fd = (s_matrix(dec, tt + h).s - s_matrix(dec, tt - h).s) / (2 * h)
        an = np.empty_like(fd)
        for j in range(dec.size):
            an[:, j] = (dec.lambdas[j] ** 2 * np.conj(w[j]) * w
                        + dec.lambdas[j] * w[j] * dec.lambdas * np.conj(w)) \
                / (4 * math.pi)
        worst["dsdt"] = max(worst["dsdt"], float(np.max(np.abs(fd - an))))
    ok = (worst["duality"] <= 1e-8 and worst["rank_one"] <= 1e-10
          and worst["commutator"] <= 1e-10 and worst["imdiag"] <= 1e-10
          and worst["dsdt"] <= 1e-6)
    _report(9, "structural invariants", ok,
            ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()), t0)


def test_criterion_10_hierarchy_rates():
    t0 = time.monotonic()
    rng = np.random.default_rng(110)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        u = random_generic(2, rng, lam_ratio=0.45)
        dec = eigendecompose(u)
        c0 = chi(dec)
        lam2 = dec.lambdas**2
        for n in (2, 3):
            u1 = as_hardy(u + h * hierarchy_vector_field(u, n))
            d1 = eigendecompose(u1, rank_tol=1e-4)
            idx = [int(np.argmin(np.abs(d1.lambdas - l))) for l in dec.lambdas]
            for j, k in enumerate(idx):
                dphi = ((d1.two_phis[k] - c0.angles[j] + math.pi)
                        % (2 * math.pi)) - math.pi
                worst = max(worst, abs(dphi / (h * lam2[j] ** (n - 1) / 2) - 1))
                dgam = d1.gammas[k] - c0.gammas[j]
                want = h * (n - 1) * lam2[j] ** (n - 1) * dec.nus[j] ** 2 \
                    / (4 * math.pi)
                worst = max(worst, abs(dgam / want - 1))
    _report(10, "hierarchy Euler rates", worst <= 1e-3,
            f"max relative rate error {worst:.2e} (<= 1e-3 at h = 1e-6)", t0)
