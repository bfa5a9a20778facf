"""The public API, pinned: a refactor that drops or changes a public name fails here.

`szego.__all__` is pinned as a sorted list of names, and every public
function of `szego.rational`, `szego.hankel`, `szego.flow`, `szego.oracle`,
`szego.actionangle` and `szego.asymptotics` (a function named in the
module's `__all__`) by the text of its `inspect.signature`, and every
public dataclass by its field names in order.
A deliberate API change edits these tables in the same change.  Only
`szego.rational` reads a symbol's per-pole `terms` or builds `PoleTerm`s;
every other module of the library works on the flat view.  Eigenvalues are
clustered by one rule, `hankel._cluster_indices`, the only reader of
`CLUSTER_RTOL`, and S(t) has one assembly, `hankel._assemble_s`.  The
layers below the flow, `rational` and `hankel`, import nothing above them,
and one helper, `rational._on_or_above_axis`, holds the floor that decides a
pole on or above the real line.
"""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import szego
from szego import actionangle, asymptotics, flow, hankel, oracle, rational

PACKAGE_ALL = [
    "ActionAngleCoords", "BlaschkeData", "FlowMatrix", "GridState",
    "HardyRational", "InputError", "NonGenericReport", "NumericalError",
    "PoleTerm", "PreconditionError", "RationalFn", "ResolutionReport",
    "SolitonParams", "SpectralDecomposition", "TMatrix", "ToleranceExceeded",
    "actionangle", "as_hardy", "asymptotics", "blaschke", "chi",
    "chi_inverse", "classify_genericity", "compare", "conserved_quantities",
    "decomposition_to_json", "eigendecompose", "errors", "evolve_eval",
    "flow", "fn_integral", "from_json_dict", "from_terms", "grid_physical",
    "growth_fit", "h_half_norm", "hankel", "hankel_apply", "hardy_from_terms",
    "hierarchy_flow", "hierarchy_vector_field", "homogeneous_sobolev_norm",
    "inner_product", "integrate", "l2_norm", "lambda_functional",
    "load_symbol", "mass", "nongeneric_analysis", "oracle", "pf_from_ratio",
    "rational", "recover_rational", "remainder_norms", "s_matrix",
    "sample_to_grid", "self_convergence", "simple_pole",
    "soliton_params_from_spectrum", "soliton_term", "spectral_conserved",
    "spectral_density", "step", "symplectic_form", "szego_flow",
    "szego_project", "t_matrix", "to_json_dict", "toroidal_cylinder_check",
    "trajectory", "zero",
]

SIGNATURES = {
    "rational": {
        "from_terms": "(pairs) -> 'RationalFn'",
        "hardy_from_terms": "(pairs) -> 'HardyRational'",
        "simple_pole": "(coeff: 'complex', pole: 'complex') -> 'HardyRational'",
        "zero": "() -> 'HardyRational'",
        "as_hardy": "(f: 'RationalFn') -> 'HardyRational'",
        "pf_from_ratio": "(numerator, denominator) -> 'HardyRational'",
        "szego_project": "(f: 'RationalFn') -> 'HardyRational'",
        "hankel_apply": "(u: 'HardyRational', h: 'HardyRational') -> 'HardyRational'",
        "lambda_functional": "(f: 'RationalFn') -> 'complex'",
        "fn_integral": "(f: 'RationalFn') -> 'complex'",
        "inner_product": "(f: 'RationalFn', h: 'RationalFn') -> 'complex'",
        "symplectic_form": "(u: 'RationalFn', v: 'RationalFn') -> 'float'",
        "blaschke": "(u: 'HardyRational') -> 'BlaschkeData'",
        "spectral_density": "(f: 'HardyRational', xi)",
        "homogeneous_sobolev_norm": "(f: 'HardyRational', s: 'float') -> 'float'",
        "l2_norm": "(f: 'HardyRational') -> 'float'",
        "h_half_norm": "(f: 'HardyRational') -> 'float'",
        "to_json_dict": "(f: 'HardyRational') -> 'dict'",
        "from_json_dict": "(d: 'dict') -> 'HardyRational'",
        "load_symbol": "(text_or_dict) -> 'HardyRational'",
    },
    "hankel": {
        "eigendecompose":
            "(u: 'HardyRational', rank_tol: 'float' = 1e-10) -> 'SpectralDecomposition'",
        "t_matrix": "(u: 'HardyRational', dec: 'SpectralDecomposition') -> 'TMatrix'",
        "classify_genericity": "(dec: 'SpectralDecomposition') -> 'str'",
        "decomposition_to_json": "(dec: 'SpectralDecomposition') -> 'dict'",
    },
    "flow": {
        "s_matrix": "(dec: 'SpectralDecomposition', t: 'float') -> 'FlowMatrix'",
        "evolve_eval": "(dec: 'SpectralDecomposition', t: 'float', x) -> 'complex'",
        "recover_rational": "(dec: 'SpectralDecomposition', t: 'float') -> 'HardyRational'",
        "conserved_quantities": "(u: 'HardyRational', kmax: 'int') -> 'list[float]'",
        "spectral_conserved": "(dec: 'SpectralDecomposition', kmax: 'int') -> 'list[float]'",
        "trajectory": (
            "(u0: 'HardyRational', times, observables: 'tuple[str, ...]' = "
            "('poles', 'coefficients', 'conserved', 'norms'), "
            "hs: 'tuple[float, ...]' = ()) -> 'list[dict]'"),
    },
    "oracle": {
        "sample_to_grid": "(u: 'HardyRational', L: 'float', M: 'int') -> 'GridState'",
        "grid_physical": "(state: 'GridState') -> 'np.ndarray'",
        "grid_points": "(L: 'float', M: 'int') -> 'np.ndarray'",
        "grid_frequencies": "(L: 'float', M: 'int') -> 'np.ndarray'",
        "step": "(state: 'GridState', dt: 'float') -> 'GridState'",
        "integrate": "(state: 'GridState', t_final: 'float', dt: 'float') -> 'GridState'",
        "mass": "(state: 'GridState') -> 'float'",
        "edge_mass_fraction": "(state: 'GridState', frac: 'float' = 0.05) -> 'float'",
        "compare":
            "(u0: 'HardyRational', t: 'float', L: 'float', M: 'int', dt: 'float') -> 'dict'",
        "self_convergence":
            "(u0: 'HardyRational', t: 'float', L: 'float', M: 'int', dt: 'float') -> 'dict'",
    },
    "actionangle": {
        "chi": "(dec: 'SpectralDecomposition') -> 'ActionAngleCoords'",
        "chi_inverse": "(coords: 'ActionAngleCoords') -> 'HardyRational'",
        "hierarchy_flow":
            "(coords: 'ActionAngleCoords', n: 'int', t: 'float') -> 'ActionAngleCoords'",
        "szego_flow": "(coords: 'ActionAngleCoords', t: 'float') -> 'ActionAngleCoords'",
        "hierarchy_vector_field": "(u: 'HardyRational', n: 'int') -> 'HardyRational'",
        "toroidal_cylinder_check":
            "(dec_a: 'SpectralDecomposition', dec_b: 'SpectralDecomposition') -> 'bool'",
        "coords_to_json": "(coords: 'ActionAngleCoords') -> 'dict'",
        "coords_from_json": "(d: 'dict') -> 'ActionAngleCoords'",
    },
    "asymptotics": {
        "soliton_params_from_spectrum":
            "(dec: 'SpectralDecomposition') -> 'tuple[SolitonParams, ...]'",
        "soliton_term": "(sp: 'SolitonParams', t: 'float') -> 'HardyRational'",
        "remainder_norms": "(u0: 'HardyRational', times, s_values) -> 'ResolutionReport'",
        "nongeneric_analysis": "(u0: 'HardyRational', times=None) -> 'NonGenericReport'",
        "growth_fit": "(u0: 'HardyRational', s: 'float', times) -> 'dict'",
        "fit_power_law": "(times, values) -> 'tuple[float, float]'",
    },
}

FIELDS = {
    "ActionAngleCoords": ["actions_i", "actions_lambda", "angles", "gammas"],
    "BlaschkeData": ["poles", "mults", "g"],
    "FlowMatrix": ["s", "w_diag", "t"],
    "GridState": ["L", "M", "amps", "time"],
    "NonGenericReport": ["eigenvalue", "soliton", "drift_a", "disc_b", "disc_c", "times",
                         "e1_track", "e2_track", "e2_imag_exponent"],
    "PoleTerm": ["pole", "coeffs"],
    "ResolutionReport": ["solitons", "times", "s_values", "norms", "exponents", "direction"],
    "SolitonParams": ["amplitude", "pole", "speed", "frequency"],
    "SpectralDecomposition": ["u", "lambdas", "evecs", "betas", "nus", "two_phis", "gammas",
                              "shift", "clusters", "genericity"],
    "TMatrix": ["t", "t_star"],
}

MODULES = {"rational": rational, "hankel": hankel, "flow": flow, "oracle": oracle,
           "actionangle": actionangle, "asymptotics": asymptotics}


def test_package_all_is_pinned():
    assert sorted(szego.__all__) == PACKAGE_ALL


@pytest.mark.parametrize("module", sorted(SIGNATURES))
def test_public_functions_and_signatures_are_pinned(module):
    mod = MODULES[module]
    public = {name: getattr(mod, name) for name in mod.__all__}
    got = {name: str(inspect.signature(obj)) for name, obj in public.items()
           if inspect.isfunction(obj)}
    assert got == SIGNATURES[module]


def test_public_dataclass_fields_are_pinned():
    public = {name: getattr(szego, name) for name in szego.__all__}
    got = {name: [f.name for f in dataclasses.fields(obj)] for name, obj in public.items()
           if dataclasses.is_dataclass(obj)}
    assert got == FIELDS


SRC = pathlib.Path(rational.__file__).parent
NOT_RATIONAL = sorted(p.name for p in SRC.glob("*.py") if p.name != "rational.py")


@pytest.mark.parametrize("path", NOT_RATIONAL)
def test_only_rational_reads_terms(path):
    tree = ast.parse((SRC / path).read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("terms", "PoleTerm")
            or isinstance(node, ast.Name) and node.id == "PoleTerm"]
    assert uses == [], f"{path} reads .terms or uses PoleTerm at lines {uses}"


def test_one_cluster_rule_and_one_s_assembly():
    reads, defs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_assemble_s":
                defs.append(path.name)
        rule = [fn for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "_cluster_indices"]
        inside = {id(node) for fn in rule for node in ast.walk(fn)}
        reads += [(path.name, node.lineno, id(node) in inside) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "CLUSTER_RTOL"
                  and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute) and node.attr == "CLUSTER_RTOL"]
    assert [(name, ok) for name, _, ok in reads] == [("hankel.py", True)], reads
    assert defs == ["hankel.py"]


def test_one_place_factors_a_pairing():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk is breadth first, so a nested function's nodes end up as its own
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        calls += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "_eigenpairs" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert calls == [("flow.py", "_from_pairing")]


def test_one_multiplicity_rule_for_every_computed_pole():
    # np.roots runs in pf_from_ratio alone, and the roots it finds are grouped
    # by the same helper as the eigenvalues of a pairing
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        calls += [(name, path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                  in ("roots", "_circles")]
    assert sorted(calls) == [("_circles", "flow.py", "_from_pairing"),
                             ("_circles", "rational.py", "pf_from_ratio"),
                             ("roots", "rational.py", "pf_from_ratio")]


ABOVE_HANKEL = ("flow", "actionangle", "asymptotics", "oracle", "sampling", "cli")


def imported_modules(node):
    """The szego modules an import statement names, by their last component."""
    if isinstance(node, ast.Import):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if node.module in (None, "szego"):                # from . import flow
        return [alias.name for alias in node.names]
    return [node.module.rsplit(".", 1)[-1]]


@pytest.mark.parametrize("path", ["hankel.py", "rational.py"])
def test_lower_layers_import_nothing_above_them(path):
    tree = ast.parse((SRC / path).read_text())
    above = [(node.lineno, name) for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in imported_modules(node) if name in ABOVE_HANKEL]
    assert above == [], f"{path} imports from above it: {above}"


def test_one_call_time_import():
    # the one import inside a function is a true cycle: asymptotics imports flow
    inside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        inside += [(path.name, owner[id(node)], name) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) in owner
                   for name in imported_modules(node)]
    assert inside == [("flow.py", "trajectory", "asymptotics")]


def test_one_place_decides_a_pole_on_or_above_the_axis():
    # the absolute 1e-12 floor lives in one helper; POLE_MERGE_RTOL shares its value only
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        owner.update({id(node.value): node.targets[0].id for node in tree.body
                      if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)})
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value == 1e-12]
    assert found == [("rational.py", "POLE_MERGE_RTOL"), ("rational.py", "_on_or_above_axis")]
