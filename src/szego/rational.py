"""Partial-fraction arithmetic and residue calculus for complex rational functions.

Every function is stored as a finite sum

    f(x) = sum_j sum_{l=1}^{m_j} c_{j,l} / (x - p_j)^l

with pairwise distinct poles ``p_j``; every such function decays at infinity.
Hardy elements (class :class:`HardyRational`) have every pole strictly below
the real axis, so they are boundary values of functions holomorphic in the
upper half-plane and their Fourier transform is supported on ``[0, oo)``:

    FT[1/(x-p)^l](xi) = 2*pi*(-i)^l / (l-1)! * xi^(l-1) * exp(-i*p*xi).

Its amplitudes come from one table over the power l - 1 (`_AMPLITUDE`).  The
Sobolev norms of any number of functions are one broadcast over their flat
views stacked into (T, n) arrays, shorter rows padded with zero entries
(`_flat_stack`, which `flow`'s recovery check reads too): every pair of
entries integrates in closed form, and each function's n x n block is summed.

Integrals of functions decaying like 1/x^2 are evaluated by residues:
``int f = -2*pi*i * (sum of first-order coefficients at poles below the
axis)``.  Products are exact, without root finding: on the flat view below
each pair of entries c/(x-p)^l, d/(x-q)^k has a closed-form product with
poles at p and q only (`_product`).

A function is stored as its flat view `_flat` and nothing else: one entry
per 1/(x - p_j)^l, a pole's entries consecutive for l = 1..m_j and the
poles sorted by (Re, Im), as the tuple of l - 1 per entry (the layout) and
read-only arrays of the entries' poles and coefficients.  `_canonical` builds
every function from a flat view, dropping exact zeros only; `terms` is derived.

Contour moments (`_circles` around groups of `LINK_RTOL`, `_from_moments` to
`RECOVER_TOL`) give the principal parts near computed poles: a pairing's
eigenvalues in `flow`, the roots of B in `pf_from_ratio`.  `_on_or_above_axis`
alone decides a pole on or above the real line.

The coefficients of g = 1 - b_u, with b_u the Blaschke product of u, have a
closed form in the poles alone (`_g_coeffs`); the spectral layer reads them
directly, and `blaschke` regroups them into a function and checks
H_u(g) = u through the product, at the symbol's own scale.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

# Tolerances of the representation layer.
POLE_MERGE_RTOL = 1e-12      # arithmetic: poles this close (vs. |p|) are the same pole
DEGREE_CAP = 64              # denominator degree cap of pf_from_ratio
RECOVER_TOL = 1e-9           # partial fractions from computed poles vs the values they fit
LINK_RTOL = 1e-2             # computed poles this close (vs. the largest |pole|) are one group

__all__ = [
    "PoleTerm",
    "RationalFn",
    "HardyRational",
    "BlaschkeData",
    "from_terms",
    "hardy_from_terms",
    "simple_pole",
    "zero",
    "as_hardy",
    "pf_from_ratio",
    "szego_project",
    "hankel_apply",
    "lambda_functional",
    "fn_integral",
    "inner_product",
    "symplectic_form",
    "blaschke",
    "spectral_density",
    "homogeneous_sobolev_norm",
    "l2_norm",
    "h_half_norm",
    "to_json_dict",
    "from_json_dict",
    "load_symbol",
]


# ----------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class PoleTerm:
    """One pole with its stack of coefficients c_l for 1/(x-p)^l, l=1..mult."""

    pole: complex
    coeffs: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("pole term with no coefficients")
        if self.coeffs[-1] == 0:
            raise InputError("top coefficient of a pole term must be nonzero")


class RationalFn:
    """Canonical partial-fraction form; an immutable value object stored as its flat view."""

    def __new__(cls, terms: tuple[PoleTerm, ...] = ()):
        return _canonical(cls, *_flatten((t.pole, t.coeffs) for t in terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}(terms={self.terms!r})"

    # -- structure ------------------------------------------------------

    @cached_property
    def terms(self) -> tuple[PoleTerm, ...]:
        """One `PoleTerm` per pole, derived from the flat view."""
        layout, poles, coeffs = self._flat
        starts, poles, coeffs = _starts(layout), poles.tolist(), coeffs.tolist()
        return tuple(PoleTerm(poles[f], tuple(coeffs[f:e])) for f, e in zip(starts, starts[1:]))

    @property
    def degree(self) -> int:
        """Total pole multiplicity (rank bookkeeping for Hardy symbols)."""
        return len(self._flat[0])

    def is_zero(self) -> bool:
        return self.max_coeff() == 0.0

    def max_coeff(self) -> float:
        return float(np.abs(self._flat[2]).max(initial=0.0))

    def poles(self) -> tuple[complex, ...]:
        layout, poles, _ = self._flat
        return tuple(poles[list(_starts(layout)[:-1])].tolist())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        (lf, p, c), (lg, q, d) = self._flat, other._flat
        return _canonical(RationalFn, lf + lg, p.tolist() + q.tolist(), c.tolist() + d.tolist())

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __neg__(self) -> "RationalFn":
        return self.scale(-1.0)

    def scale(self, a: complex) -> "RationalFn":
        if not cmath.isfinite(a):
            raise InputError(f"scale factor must be finite, got {a}")
        if a == 0:
            return RationalFn()
        layout, poles, coeffs = self._flat
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = a * coeffs
        if not np.isfinite(coeffs).all():
            raise InputError(f"coefficients scaled by {a} are not finite")
        return _wrap(RationalFn, (layout, poles, coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, RationalFn):
            return _canonical(RationalFn, *_product(self._flat, other._flat))
        return NotImplemented

    __rmul__ = __mul__   # a scalar on the left scales as on the right

    def conj_reflect(self) -> "RationalFn":
        """x -> conj(f(conj(x))); mirrors poles across the real axis."""
        layout, poles, coeffs = self._flat
        return _canonical(RationalFn, layout, poles.conj(), coeffs.conj())

    # -- evaluation -----------------------------------------------------

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Direct summation of the partial fractions at z (scalar or array).

        A point that is not finite, or where the sum is not (a pole), is an `InputError`.
        """
        layout, poles, coeffs = self._flat
        zarr = np.asarray(z, dtype=complex)
        if not np.isfinite(zarr).all():
            raise InputError(f"point must be finite, got {complex(zarr[~np.isfinite(zarr)][0])}")
        with np.errstate(all="ignore"):
            out = (coeffs / (zarr[..., None] - poles) ** np.add(layout, 1)).sum(axis=-1)
        if not np.isfinite(out).all():
            raise InputError("evaluation at pole")
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


class HardyRational(RationalFn):
    """Rational element of the Hardy space: decaying, poles strictly below R."""


def _canonical(cls, layout, poles, coeffs) -> RationalFn:
    """The cls symbol of the flat view (layout, poles, coeffs): merged, sorted, checked.

    A pole joins the first kept pole within POLE_MERGE_RTOL * |p|, which keeps its
    value, coefficients summing in input order; only exact zeros are dropped, at a pole's
    top, since near the axis a tiny coefficient can weigh O(1).  Poles sort by (Re, Im).
    """
    starts = _starts(tuple(layout))
    coeffs = list(map(complex, coeffs))
    firsts = [complex(poles[f]) for f in starts[:-1]]
    if not all(map(cmath.isfinite, firsts + coeffs)):
        raise InputError("poles and coefficients must be finite")
    merged: list[tuple[complex, list[complex]]] = []
    for pole, f, e in zip(firsts, starts, starts[1:]):
        tol = POLE_MERGE_RTOL * abs(pole)
        for mp, mc in merged:
            if abs(mp - pole) <= tol:
                mc += [0.0j] * (e - f - len(mc))
                for i, c in enumerate(coeffs[f:e]):
                    mc[i] += c
                break
        else:
            merged.append((pole, coeffs[f:e]))
    mults, poles, coeffs = [], [], []
    for pole, cs in sorted(merged, key=lambda pc: (pc[0].real, pc[0].imag)):
        while cs and cs[-1] == 0:
            cs.pop()
        if cs:
            mults.append(len(cs))
            poles += [pole] * len(cs)
            coeffs += cs
    return _wrap(cls, (_layout(mults), np.array(poles, dtype=complex),
                       np.array(coeffs, dtype=complex)))


def _canonical_rows(cls, poles: np.ndarray, coeffs: np.ndarray) -> list[RationalFn]:
    """`_canonical` of every row of a (T, N) stack of simple-pole flat views, bitwise.

    The finiteness, zero and merge tests run as array operations, the merge test with
    a factor 2 to spare, so that the rounding of an array `abs` cannot let through a
    row the loop would change.  A row that passes them is only sorted by (Re, Im),
    by `lexsort`, which is stable as `sorted` is.  Any other row, and a stack
    of at most one, where the loop is the cheaper, takes `_canonical`.  Rows
    are built, and raise, in order.
    """
    poles, coeffs = np.asarray(poles, dtype=complex), np.asarray(coeffs, dtype=complex)
    n = poles.shape[-1]
    if len(poles) <= 1:
        return [_canonical(cls, (0,) * n, p.tolist(), c.tolist()) for p, c in zip(poles, coeffs)]
    with np.errstate(invalid="ignore", over="ignore"):
        tol = 2.0 * POLE_MERGE_RTOL * np.abs(poles)   # pole j's merge radius, as in the loop
        near = np.abs(poles[:, :, None] - poles[:, None, :]) <= tol[:, None, :]
        fast = (np.isfinite(poles).all(axis=-1)
                & (near.sum(axis=(-2, -1)) == n)         # the diagonal alone
                & (np.isfinite(coeffs) & (coeffs != 0)).all(axis=-1))
    order = np.lexsort((poles.imag, poles.real), axis=-1)
    P, C = np.take_along_axis(poles, order, -1), np.take_along_axis(coeffs, order, -1)
    up = issubclass(cls, HardyRational) & _on_or_above_axis(P).any(axis=-1)
    out = []
    for i, ok in enumerate(fast.tolist()):
        if not ok:
            out.append(_canonical(cls, (0,) * n, poles[i].tolist(), coeffs[i].tolist()))
        elif up[i]:
            raise InputError("pole on or above real line")
        else:
            out.append(_new(cls, ((0,) * n, P[i], C[i])))
    return out


def _wrap(cls, flat) -> RationalFn:
    """The cls symbol stored as the canonical flat view `flat`, its arrays made read-only."""
    if issubclass(cls, HardyRational) and any(map(_on_or_above_axis, flat[1].tolist())):
        raise InputError("pole on or above real line")
    return _new(cls, flat)


def _new(cls, flat) -> RationalFn:
    """`_wrap` of a flat view already checked."""
    flat[1].flags.writeable = flat[2].flags.writeable = False
    u = object.__new__(cls)
    u.__dict__["_flat"] = flat
    return u


def _on_or_above_axis(p):
    """Im p >= -1e-12, for one pole or an array: the one test of a pole on or above the axis.
    The floor is absolute (ROADMAP item 3) and sets the non-generic horizon: 2/(x+i) - 4/(x+2i)
    recovers to t = 3.5e6, and to 1e9 (norms to 9.1e-9) with the test at Im p >= 0."""
    return p.imag >= -1e-12


def _flatten(pairs) -> tuple[tuple[int, ...], list, list]:
    """The flat view of (pole, coeffs) pairs, poles and coefficients as lists."""
    pairs = list(pairs)
    return (_layout([len(cs) for _, cs in pairs]), [p for p, cs in pairs for _ in cs],
            [c for _, cs in pairs for c in cs])


def from_terms(pairs) -> RationalFn:
    """Canonicalize (pole, coeffs) pairs: merge, drop exact zeros at a pole's top, sort."""
    return _canonical(RationalFn, *_flatten(pairs))


def hardy_from_terms(pairs) -> HardyRational:
    return _canonical(HardyRational, *_flatten(pairs))


def _layout(mults) -> tuple[int, ...]:
    """The flat layout of poles of the given multiplicities: l - 1 per entry."""
    return tuple([l for m in mults for l in range(m)])


@lru_cache(maxsize=256)
def _starts(layout: tuple[int, ...]) -> tuple[int, ...]:
    """Each pole's first entry in a flat layout, then the layout's length."""
    return tuple([a for a, l in enumerate(layout) if l == 0] + [len(layout)])


def _from_flat(layout, poles, coeffs) -> HardyRational:
    """The Hardy element whose flat view is (layout, poles, coeffs), canonicalized."""
    return _canonical(HardyRational, layout, poles, coeffs)


def _flat_stack(us, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat views of us, each of at most n entries, as (T, n) poles, coefficients and
    powers l + 1.  A shorter row is padded with 0/(x - p) at its first pole p (at -i if it
    has none), which adds nothing on the real line and leaves max|p| as it is."""
    def padded(layout, p, c):
        k = n - len(layout)
        return (layout + (0,) * k, np.concatenate((p, np.full(k, p[0] if len(p) else -1j))),
                np.concatenate((c, np.zeros(k))))

    layouts, poles, coeffs = zip(*(padded(*u._flat) if u.degree < n else u._flat for u in us))
    return np.array(poles), np.array(coeffs), np.add(layouts, 1)


def as_hardy(f: RationalFn) -> HardyRational:
    return _wrap(HardyRational, f._flat)


def simple_pole(coeff: complex, pole: complex) -> HardyRational:
    """The Hardy element coeff/(x - pole)."""
    return hardy_from_terms([(pole, [coeff])])


def zero() -> HardyRational:
    return HardyRational()


# ----------------------------------------------------------------------------
# exact multiplication


def _product(f, g) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The flat view of f * g, in closed form pair by pair of entries c/(x-p)^l, d/(x-q)^k.

    A pair at a shared pole (POLE_MERGE_RTOL) is cd/(x-p)^(l+k); otherwise
    1/((x-p)^l (x-q)^k) = sum_{n<l} C(k+n-1, n) (-1)^n (p-q)^-(k+n) / (x-p)^(l-n)
    + (p <-> q).  The result runs over f's poles, then g's, then one run per
    shared pair; `from_terms` merges a repeated pole, keeping f's value.
    """
    lf, p, c = f
    lg, q, d = g
    if not (lf and lg):
        return (), p[:0], c[:0]
    cd = c[:, None] * d
    delta = p[:, None] - q
    same = np.abs(delta) <= POLE_MERGE_RTOL * np.abs(p)[:, None]
    inv = np.where(same, 0.0, 1.0 / np.where(same, 1.0, delta))   # a shared pair adds nothing here

    def side(lx, ly, inv, cd):
        """The coefficients on x's entries of the pairs' terms at x's poles."""
        n = np.arange(max(lx) + 1)
        k = np.add(ly, 1)[None, :, None]
        signed = np.array([[(-1) ** b * math.comb(a, b) for b in n]
                           for a in range(k.max() + n[-1])], dtype=float)
        w = signed[k + n - 1, n] * inv[..., None] ** (k + n)
        return _onto_entries(lx, np.einsum("ab,abn->an", cd, w))

    views = [(lf, p, side(lf, lg, inv, cd)), (lg, q, side(lg, lf, -inv.T, cd.T))]
    views += [_run(p[a], lf[a] + lg[b] + 2, cd[a, b]) for a, b in zip(*np.nonzero(same))]
    layouts, poles, coeffs = zip(*views)
    return sum(layouts, ()), np.concatenate(poles), np.concatenate(coeffs)


def _run(pole, m, top):
    """The flat view of top/(x - pole)^m."""
    return _layout([m]), np.full(m, pole, dtype=complex), np.eye(m)[-1] * top


def _onto_entries(layout, w) -> np.ndarray:
    """Entry e gets sum_n w[e + n, n], w[a, n] being a term n powers below entry a's own."""
    out = w[:, 0].copy()
    lay = np.array(layout)
    for n in range(1, w.shape[1]):
        out[:-n] += np.where(lay[n:] >= n, w[n:, n], 0.0)
    return out


# ----------------------------------------------------------------------------
# partial fractions from computed poles: contour moments, and A/B


# nodes of the trapezoid rule on the unit circle
_NODES = np.exp(2j * math.pi * np.arange(64) / 64)


def _circles(E: np.ndarray) -> list[tuple[complex, float, int]] | None:
    """One contour (center, radius, size) per group of the computed poles E (N,).

    Groups are single linkage within LINK_RTOL max|E|, singletons included.  A
    group's circle is centered at its mean, with radius half the distance to
    the nearest pole outside it (max|E| / 2 if there is none).  None if a
    circle does not clear its group by twice the group's spread.
    """
    scale = abs(E).max(initial=0.0)
    near = abs(E[:, None] - E) <= LINK_RTOL * scale
    reach = np.linalg.matrix_power(near, len(E))      # chains of near pairs: single linkage
    circ = [(c := E[g].mean(), 0.5 * abs(E[~g] - c).min(initial=scale), g)
            for g in reach[reach.argmax(axis=-1) == np.arange(len(E))]]   # one row per group
    clear = all(r > 2.0 * abs(E[g] - c).max() for c, r, g in circ)
    return [(c, r, int(g.sum())) for c, r, g in circ] if clear else None


def _from_moments(values, circles) -> list[tuple[complex, list[complex]]] | None:
    """Principal parts of a function u from its values on one circle per group.

    u is a pairing of `flow`, or A/B in `pf_from_ratio`.  On the circle of
    center c and radius r around a group of m poles, the moments nu_k =
    (1/2pi i) oint u(z) ((z - p)/r)^k dz / r, k < 2m, are the trapezoid rule
    at `_NODES`.  The center p = c is refined once by p + r nu_m /
    (m nu_(m-1)) if that stays within r/2.  The group is one
    pole of order m at p, with coefficients r^(k+1) nu_k, when nu_m ...
    nu_(2m-1) are below RECOVER_TOL times the largest of nu_0 ... nu_(m-1);
    otherwise its m simple poles are p + r s for the eigenvalues s of the
    Hankel pencil (H_1, H_0) of the nu, with residues from one Vandermonde
    solve (Kravanja and Van Barel, LNM 1727).  None if the parts miss the
    values by more than RECOVER_TOL of the largest; a singular pencil raises
    `np.linalg.LinAlgError`.
    """
    out = []
    for u, (c, r, m) in zip(values, circles):
        def moments(p):
            return (u * _NODES) @ np.vander((c - p) / r + _NODES, 2 * m, increasing=True) / len(u)
        p, nu = c, moments(c)
        if abs(nu[m]) < 0.5 * m * abs(nu[m - 1]):
            nu = moments(p := c + r * nu[m] / (m * nu[m - 1]))
        if abs(nu[m:]).max() <= RECOVER_TOL * abs(nu[:m]).max():
            out.append((p, (nu[:m] * r ** np.arange(1, m + 1)).tolist()))
            continue
        H = np.array([nu[k:k + m] for k in range(m + 1)])
        s = np.linalg.eigvals(np.linalg.solve(H[:m], H[1:]))
        res = np.linalg.solve(np.vander(s, m, increasing=True).T, nu[:m])
        out += [(p + r * sk, [r * rk]) for sk, rk in zip(s.tolist(), res.tolist())]
    z = np.array([c + r * _NODES for c, r, _ in circles])
    got = sum(k / (z - p) ** (l + 1) for p, ks in out for l, k in enumerate(ks))
    return out if abs(got - values).max() <= RECOVER_TOL * abs(values).max() else None


def pf_from_ratio(numerator, denominator) -> HardyRational:
    """Partial fractions of A/B for a Hardy-admissible denominator.

    `numerator`, `denominator`: ascending complex coefficients.  Requires
    deg A <= deg B - 1 and all roots of B strictly below the real axis.
    Every principal part comes from contour moments of A/B, with B in
    product form over its computed roots, on one circle per group of roots
    (`_circles`, `_from_moments`): the rule that recovers u(t) in `flow`.

    It fails closed, with a `NumericalError` if no circles clear their groups,
    the moments miss A/B on them, fewer than deg B pole entries survive or
    A/B (Horner) is missed by over 1e-8 of max|A/B| at 2 deg B + 1 real
    points spanning the roots, plus eps * sum |term|: the rounding of the sum,
    whose terms cancel at high degree, can peak between the points.  A root
    of multiplicity up to 6 at -i, alone or beside a simple or double root,
    is met to 2e-11.  On roots uniform in [-3, 3] x [-3, -0.5]i and random
    numerators (`default_rng` seeds 0-9), every draw passes up to degree 20
    (relative error <= 1.5e-9); 1, 3, 7 and 7 in 10 raise at degrees 24, 28,
    32 and 40, and all from 48, where np.roots is off by up to 1.
    """
    num = np.trim_zeros(np.array(numerator, dtype=complex), "b")
    den = np.trim_zeros(np.array(denominator, dtype=complex), "b")
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise InputError("polynomial coefficients must be finite")
    if len(den) < 2:
        raise InputError("denominator must have degree >= 1")
    if len(num) >= len(den):
        raise InputError("numerator degree must be below denominator degree")
    if len(den) > DEGREE_CAP + 1:
        raise InputError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    roots = np.roots(den[::-1])
    circles = _circles(roots)
    centers = roots if circles is None else np.array([c for c, _, _ in circles])
    if _on_or_above_axis(centers).any():
        raise InputError("pole on or above real line")
    if not len(num):
        return zero()
    num = num[::-1] / den[-1]      # highest power first, as np.polyval takes it
    if np.any(np.abs(np.polyval(num, centers))
              <= 1e-8 * np.polyval(np.abs(num), np.maximum(1.0, np.abs(centers)))):
        raise InputError("non-reduced fraction")
    degree = len(den) - 1
    fail = f"partial fractions of A/B inaccurate at degree {degree}"
    if circles is None:
        raise NumericalError(f"{fail}: no circle clears its group of roots")
    z = np.array([c + r * _NODES for c, r, _ in circles])
    try:
        parts = _from_moments(np.polyval(num, z) / np.prod(z[..., None] - roots, axis=-1), circles)
    except np.linalg.LinAlgError:
        parts = None
    if parts is None:
        raise NumericalError(f"{fail}: contour moments miss A/B")
    out = hardy_from_terms(parts)
    layout, poles, coeffs = out._flat
    pad = np.abs(roots.imag).max()
    xs = np.linspace(roots.real.min() - pad, roots.real.max() + pad, 2 * len(den) - 1)
    want = np.polyval(num, xs) / np.polyval(den[::-1] / den[-1], xs)
    terms = coeffs / (xs[:, None] - poles) ** np.add(layout, 1)   # `evaluate`'s, unsummed
    err = (np.abs(terms.sum(axis=-1) - want).max()
           + np.finfo(float).eps * np.abs(terms).sum(axis=-1).max()) / np.abs(want).max()
    if (kept := len(layout)) < degree or err > 1e-8:
        raise NumericalError(f"{fail}: relative error {err:.1e}, {kept} of {degree} poles kept")
    return out


# ----------------------------------------------------------------------------
# projector, Hankel action, functionals


def szego_project(f: RationalFn) -> HardyRational:
    """Keep the partial-fraction terms with poles in the lower half-plane."""
    keep = [(t.pole, t.coeffs) for t in f.terms if t.pole.imag < 0]
    return hardy_from_terms(keep)


def hankel_apply(u: HardyRational, h: HardyRational) -> HardyRational:
    """H_u(h) = projection of u * conj(h); antilinear in h."""
    return szego_project(u * h.conj_reflect())


def lambda_functional(f: RationalFn) -> complex:
    """lim_{x->oo} x f(x): the sum of all first-order coefficients."""
    return sum((t.coeffs[0] for t in f.terms), 0.0j)


def fn_integral(f: RationalFn) -> complex:
    """Integral over R of a rational function decaying like 1/x^2."""
    scale = f.max_coeff()
    if scale == 0.0:
        return 0.0j
    if abs(lambda_functional(f)) > 1e-8 * scale:
        raise PreconditionError("non-integrable")
    total = 0.0j
    for t in f.terms:
        if _on_or_above_axis(t.pole) and _on_or_above_axis(t.pole.conjugate()):
            raise PreconditionError("non-integrable")   # on the axis
        if t.pole.imag < 0:
            total += t.coeffs[0]
    return -2j * math.pi * total


def inner_product(f: RationalFn, h: RationalFn) -> complex:
    """(f, h) = int f conj(h), exact by residues."""
    return fn_integral(f * h.conj_reflect())


def symplectic_form(u: RationalFn, v: RationalFn) -> float:
    """omega(u, v) = 4 Im int u conj(v)."""
    return 4.0 * inner_product(u, v).imag


def l2_norm(f: HardyRational) -> float:
    """The L^2 norm in closed form: the s = 0 homogeneous Sobolev norm."""
    return homogeneous_sobolev_norm(f, 0.0)


# ----------------------------------------------------------------------------
# Blaschke product and g = 1 - b_u


@dataclass(frozen=True)
class BlaschkeData:
    """Inner function b_u = prod ((x-conj p)/(x-p))^m and g = 1 - b_u."""

    poles: tuple[complex, ...]
    mults: tuple[int, ...]
    g: HardyRational

    def evaluate_b(self, z):
        zarr = np.asarray(z, dtype=complex)
        out = np.ones_like(zarr)
        for p, m in zip(self.poles, self.mults):
            out = out * ((zarr - p.conjugate()) / (zarr - p)) ** m
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


@lru_cache(maxsize=64)
def _g_gather(layout: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per layout, read-only: each pole's first entry and multiplicity, and each
    entry's pole j and flat index j * top + m_j - l into `_g_coeffs`' table."""
    starts = _starts(layout)
    m, top = np.diff(starts), max(layout) + 1
    at = np.array([j * top + mj - l for j, mj in enumerate(m.tolist()) for l in range(1, mj + 1)])
    for a in (arrays := (np.array(starts[:-1]), m, at // top, at)):
        a.flags.writeable = False
    return arrays


def _g_coeffs(u: HardyRational) -> np.ndarray:
    """Coefficients of g = 1 - b_u on 1/(x-p)^l, in the flat layout.

    Around a pole p of multiplicity m, b_u = (x-p)^-m h(x) with
    h(x) = (x - conj p)^m prod_{q != p} ((x - conj q)/(x - q))^(m_q), so the
    coefficient of g on 1/(x-p)^l is -h_(m-l).  The Taylor coefficients of
    h/h(p) follow from the power sums of log h,
    s_n = (-1)^(n+1)/n sum_q m_q ((p - conj q)^-n - [q != p] (p - q)^-n),
    by the exponential recursion n a_n = sum_k k s_k a_(n-k).  For a simple
    pole the coefficient is -(p - conj p) prod_{q != p} (p - conj q)/(p - q).
    """
    layout, p, _ = u._flat
    simple = not any(layout)
    if not simple:
        first, m, pole_of, at = _g_gather(layout)
        p, top = p[first], max(layout) + 1
    Dbar = p[:, None] - p.conj()   # p_j - conj p_k, never zero
    D = p[:, None] - p
    D.reshape(-1)[:: len(p) + 1] = 1.0   # so D^-n - I is (p_j - p_k)^-n off the diagonal
    if simple:   # m = 1 is an exact power; the Taylor factor 1 + 0j sets the signs of zeros
        return -(Dbar / D).prod(axis=1) * (1.0 + 0j)
    h0 = ((Dbar / D) ** m).prod(axis=1)
    s = [None] + [(-1) ** (n + 1) / n * ((Dbar ** -n - D ** -n) @ m + m) for n in range(1, top)]
    a = np.ones((len(p), top), dtype=complex)   # a[j, n]: Taylor coefficients of h/h(p_j)
    for n in range(1, top):
        a[:, n] = sum(k * s[k] * a[:, n - k] for k in range(1, n + 1)) / n
    # entry (p_j, l) of the range basis is -h0_j a[j, m_j - l]
    return -h0.take(pole_of) * a.take(at)


def blaschke(u: HardyRational) -> BlaschkeData:
    """Blaschke data of the symbol, g = 1 - b_u from `_g_coeffs`.

    Checks H_u(g) = Pi(u conj(g)) = u, one product, to 1e-10 of ||u||_L2 as `eigendecompose`
    does: H_u g is linear in u, and g does not depend on u's amplitude.
    """
    if u.is_zero():
        raise PreconditionError("undefined for zero symbol")
    layout, poles, _ = u._flat
    g = _from_flat(layout, poles, _g_coeffs(u))
    resid = hankel_apply(u, g) - u
    if l2_norm(resid) > 1e-10 * l2_norm(u):
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")
    return BlaschkeData(u.poles(), tuple(t.multiplicity for t in u.terms), g)


# ----------------------------------------------------------------------------
# Fourier side


# the transform's amplitude 2 pi (-i)^(k+1) / k! on 1/(x - p)^(k+1), for every k whose k!
# is a float
_AMPLITUDE = np.array([2.0 * math.pi * (-1j) ** (k + 1) / math.factorial(k) for k in range(171)])


def _fourier_arrays(f: HardyRational) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes, poles and powers of the transform's terms, one per nonzero entry.

    A power beyond `_AMPLITUDE`, whose k! is not a float, is a `NumericalError`.
    """
    layout, poles, coeffs = f._flat
    keep = coeffs != 0
    power = np.array(layout, dtype=int)[keep]
    if power.max(initial=0) >= len(_AMPLITUDE):
        raise NumericalError(f"amplitude 2 pi / k! beyond the float range at k = {power.max()}")
    return coeffs[keep] * _AMPLITUDE[power], poles[keep], power


def spectral_density(f: HardyRational, xi):
    """Evaluate the closed-form transform at xi (scalar or array); it is 0 at xi < 0.

    The formula is evaluated at xi >= 0 alone: below, it grows like e^{|Im p| |xi|}.
    A frequency that is not finite is an `InputError`.
    """
    xarr = np.asarray(xi, dtype=float)
    if not np.isfinite(xarr).all():
        raise InputError(f"frequency must be finite, got {xarr[~np.isfinite(xarr)][0]}")
    neg = xarr < 0
    x = np.where(neg, 0.0, xarr)
    out = np.zeros(xarr.shape, dtype=complex)
    for amp, pole, power in zip(*(a.tolist() for a in _fourier_arrays(f))):
        out += amp * x**power * np.exp(-1j * pole * x)
    out[neg] = 0.0
    if np.isscalar(xi) or xarr.ndim == 0:
        return complex(out)
    return out


def _sobolev_indices(ss) -> np.ndarray:
    """Sobolev indices as floats: not finite is an `InputError`, negative a `PreconditionError`."""
    ss = np.asarray(ss, dtype=float)
    if not np.isfinite(ss).all():
        raise InputError(f"Sobolev index must be finite, got {ss[~np.isfinite(ss)][0]}")
    if np.any(ss < 0):
        raise PreconditionError("Sobolev index must be nonnegative")
    return ss


def _sobolev_norms(fs, ss) -> np.ndarray:
    """Homogeneous Sobolev norms of every f of fs for every s in ss, shape (len(fs), len(ss)).

    ||f||_{Hdot^s}^2 = (1/2pi) int_0^oo xi^(2s) |fhat|^2, with every cross
    term integrating to Gamma(a+1)/c^(a+1) where c = i(p_a - conj(p_b)) has
    positive real part.  All functions are one broadcast over their padded
    flat views (`_flat_stack`): the (T, S, n, n) terms of T functions, S
    indices and n entries are summed over each function's n x n block.  A
    pole on or above the real line has no such transform: a
    `PreconditionError` (`inner_product` takes a general `RationalFn`).  An
    index that is not finite is an `InputError`, and a Gamma factor or a norm
    beyond the float range a `NumericalError`.
    """
    ss = _sobolev_indices(ss)
    n = max((f.degree for f in fs), default=0)
    if not n:
        return np.zeros((len(fs), len(ss)))
    poles, coeffs, powers = _flat_stack(fs, n)
    if _on_or_above_axis(poles).any():
        raise PreconditionError("Sobolev norms need every pole below the real line")
    k = powers - 1
    kk = k[:, :, None] + k[:, None, :]
    try:
        gam = np.array([[math.gamma(2.0 * s + j + 1.0) for j in range(kk.max() + 1)] for s in ss])
    except OverflowError:
        raise NumericalError("Sobolev norm's Gamma factor beyond the float range") from None
    G = gam[np.arange(len(ss))[:, None, None], kk[:, None]]
    e = 2.0 * ss[:, None, None] + kk[:, None]
    c = 1j * (poles[:, :, None] - np.conj(poles[:, None, :]))
    with np.errstate(all="ignore"):
        amp = coeffs * _AMPLITUDE[k]
        A = amp[:, :, None] * np.conj(amp[:, None, :])
        total = np.sum(A[:, None] * G / c[:, None] ** (e + 1.0), axis=(2, 3))
        out = np.sqrt(np.maximum(total.real / (2.0 * math.pi), 0.0))
    if not np.isfinite(out).all():
        raise NumericalError("Sobolev norm beyond the float range")
    return out


def homogeneous_sobolev_norm(f: HardyRational, s: float) -> float:
    """Exact homogeneous Sobolev norm via Gamma-function integrals."""
    return float(_sobolev_norms([f], (s,))[0, 0])


def h_half_norm(f: HardyRational) -> float:
    """The conserved H^(1/2) quantity: sqrt(mass + momentum).

    Equals (||f||_L2^2 + ||f||_{Hdot^(1/2)}^2)^(1/2); this is the combination
    that the flow preserves exactly, and the convention used by trajectory
    observables and conservation tests.
    """
    a, b = _sobolev_norms([f], (0.0, 0.5))[0].tolist()
    return math.sqrt(a * a + b * b)


# ----------------------------------------------------------------------------
# JSON interchange


def to_json_dict(f: HardyRational) -> dict:
    return {
        "terms": [
            {
                "pole": [t.pole.real, t.pole.imag],
                "coeffs": [[c.real, c.imag] for c in t.coeffs],
            }
            for t in f.terms
        ]
    }


def from_json_dict(d: dict) -> HardyRational:
    try:
        pairs = []
        for td in d["terms"]:
            pole = complex(td["pole"][0], td["pole"][1])
            coeffs = [complex(c[0], c[1]) for c in td["coeffs"]]
            pairs.append((pole, coeffs))
    except (KeyError, TypeError, IndexError) as e:
        raise InputError(f"malformed symbol JSON: {e}") from e
    return hardy_from_terms(pairs)


def load_symbol(text_or_dict) -> HardyRational:
    """Accept a symbol as JSON text/dict: either partial fractions or A/B."""
    if isinstance(text_or_dict, str):
        try:
            d = json.loads(text_or_dict)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
    else:
        d = text_or_dict
    if not isinstance(d, dict):
        raise InputError("symbol JSON must be an object")
    if "terms" in d:
        return from_json_dict(d)
    if "numerator" in d and "denominator" in d:
        def _ascomplex(seq):
            out = []
            for c in seq:
                if isinstance(c, (list, tuple)):
                    out.append(complex(c[0], c[1]))
                else:
                    out.append(complex(c))
            return out
        try:
            num = _ascomplex(d["numerator"])
            den = _ascomplex(d["denominator"])
        except (TypeError, IndexError) as e:
            raise InputError(f"malformed polynomial spec: {e}") from e
        return pf_from_ratio(num, den)
    raise InputError("symbol JSON needs 'terms' or 'numerator'/'denominator'")
