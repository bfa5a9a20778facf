"""Self-tests of the benchmark's checkers and tracer.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

sz = pytest.importorskip("szego")


def test_cauchy_lambda2_soliton_and_double_eigenvalue():
    assert checks.cauchy_lambda2([-1j], [1.0]) == pytest.approx([0.25], rel=1e-15)
    lam2 = checks.cauchy_lambda2([-1j, -2j], [2.0, -4.0])
    assert lam2 == pytest.approx([1.0 / 9.0, 1.0 / 9.0], rel=1e-15)


def test_norms_match_quadrature():
    terms = workloads.GENERIC_M2
    poles, coeffs = [p for p, _ in terms], [cs[0] for _, cs in terms]
    assert checks.gram_norm2(poles, coeffs) == pytest.approx(checks.quad_norm2(terms), rel=1e-10)
    assert checks.hdot_half2([-1j], [1.0]) == pytest.approx(math.pi / 2, rel=1e-15)


def _forward(terms, lam2=None):
    ref = checks.ForwardRef(terms, lam2)
    u = sz.hardy_from_terms(terms)
    dec = sz.eigendecompose(u)
    return ref, dec, sz.t_matrix(u, dec)


def test_forward_passes_and_flags_shifted_eigenvalue():
    ref, dec, tm = _forward(workloads.GENERIC_M2)
    coords = sz.chi(dec)
    assert checks.check_forward(ref, dec.lambdas, dec.nus, tm.t, coords) is None
    bad = dec.lambdas * (1.0 + 1e-6)
    assert checks.check_forward(ref, bad, dec.nus, tm.t, coords) is not None


def test_forward_flags_shifted_pole():
    terms = [(p + (1e-6 if k == 0 else 0.0), cs)
             for k, (p, cs) in enumerate(workloads.GENERIC_M2)]
    ref = checks.ForwardRef(terms)
    _, dec, tm = _forward(workloads.GENERIC_M2)
    assert checks.check_forward(ref, dec.lambdas, dec.nus, tm.t, None) is not None


def test_double_eigenvalue_forward():
    ref, dec, tm = _forward(workloads.DOUBLE_EIG, checks.DOUBLE_EIG_LAM2)
    assert checks.check_forward(ref, dec.lambdas, dec.nus, tm.t, None) is None


def test_inverse_flags_shifted_pole():
    coords = workloads.draw_coords(sz, np.random.default_rng(0), 4)
    terms = workloads.terms_of(sz.chi_inverse(coords))
    assert checks.check_inverse(coords, terms) is None
    (p, cs), rest = terms[0], terms[1:]
    assert checks.check_inverse(coords, [(p + 1e-6, cs)] + rest) is not None


def test_trajectory_soliton_flags_shifted_pole():
    terms = [(0.3 - 0.8j, [0.7 - 0.4j])]
    rows = sz.trajectory(sz.hardy_from_terms(terms), workloads.TRAJ_TIMES,
                         observables=workloads.TRAJ_OBSERVABLES, hs=(1.0,))
    mass = checks.norm2(terms)
    h12 = math.sqrt(mass + checks.hdot_half2([terms[0][0]], terms[0][1]))
    assert checks.check_trajectory(terms, workloads.TRAJ_TIMES, rows, mass, h12) is None
    rows[3]["poles"] = [rows[3]["poles"][0] + 1e-6]
    assert checks.check_trajectory(terms, workloads.TRAJ_TIMES, rows, mass, h12) is not None


def test_oracle_and_roundtrip_limits():
    rep = {"t": 0.04, "L": 200.0, "l2_error": 1e-6, "j2_drift_oracle": 1e-15}
    assert checks.check_oracle(rep) is None
    assert checks.check_oracle(dict(rep, l2_error=1e-4)) is not None
    doc = {"max_coords_error": 1e-13, "max_symbol_l2_error": 1e-12}
    assert checks.check_roundtrip(0, doc) is None
    assert checks.check_roundtrip(4, doc) is not None
    assert checks.check_roundtrip(0, dict(doc, max_symbol_l2_error=2e-7)) is not None


def test_tracer_wraps_every_binding():
    import tracing

    original = sz.flow.eigendecompose
    tr = tracing.Tracer()
    tr.install()
    try:
        assert sz.flow.eigendecompose is not original
        sz.trajectory(sz.simple_pole(1.0, -1j), (0.0, 1.0), observables=("poles",))
    finally:
        tr.uninstall()
    assert sz.flow.eigendecompose is original
    m = tracing.per_layer(tr.arrays())
    assert m["hankel.eigendecompose.calls"][0] == 1.0
    assert m["flow.recover_rational.calls"][0] == 2.0
    assert m["flow.evolve_eval_per_recover"][0] == 20.0


def test_slowdowns_follow_the_samples_around_each_operation():
    import reference

    host = reference.HostSpeed()
    host.at = [0] * 3 + list(range(1, 41)) + [40] * 3
    host.wall = [reference.NOMINAL_S] * 23 + [2.0 * reference.NOMINAL_S] * 23
    host.cpu = list(host.wall)
    wall, cpu = host.slowdowns(40)
    assert wall.shape == (40,) and list(wall) == list(cpu)
    assert wall[0] == 1.0 and wall[-1] == 2.0
    assert list(wall) == sorted(wall)


def test_gitignore_covers_run_outputs():
    with open(os.path.join(ROOT, ".gitignore"), encoding="utf-8") as fh:
        lines = {line.strip() for line in fh}
    assert "/perfbench/out/" in lines
