"""Command-line surface: spectrum, evolve, solitons, growth, actionangle,
roundtrip, validate.

Every run writes its artifacts plus a manifest.json into the output
directory: the command, its config (every option but --out, as parsed),
the library version, the wall time and the artifact list.  All files are
written atomically; artifacts are byte-identical across runs with
the same configuration and seed, and only the manifest carries timing.

`evolve` lays its table out from the keys of the trajectory rows
(`_evolve_cells`), and an observable `flow.trajectory` does not know exits 2.

Exit codes: 0 success, 2 invalid input, 3 mathematical precondition
violated, 4 tolerance exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import InputError, NumericalError, PreconditionError, ToleranceExceeded
from .rational import as_hardy, l2_norm, load_symbol, to_json_dict
from .hankel import decomposition_to_json, eigendecompose
from .flow import _OBSERVABLES, trajectory
from .actionangle import (
    chi,
    chi_inverse,
    coords_from_json,
    coords_to_json,
    _chi_inverse,
)
from .asymptotics import _growth_fits, _solitons_at, nongeneric_analysis, remainder_norms
from .oracle import compare, self_convergence
from .sampling import _conditioned, random_coords


def _parse_times(spec: str) -> list[float]:
    if spec.startswith("lin:") or spec.startswith("log:"):
        try:
            kind, a, b, n = spec.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError as e:
            raise InputError(f"bad times spec {spec!r}: {e}") from e
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InputError(f"bad times spec {spec!r}: endpoints must be finite")
        if n < 1:
            raise InputError("times spec needs at least one point")
        if kind == "lin":
            return [float(v) for v in np.linspace(a, b, n)]
        if a == 0 or b == 0 or (a < 0) != (b < 0):
            raise InputError("log spacing needs nonzero endpoints of one sign")
        sgn = 1.0 if a > 0 else -1.0
        return [float(sgn * v) for v in np.geomspace(abs(a), abs(b), n)]
    if not (times := _parse_list(spec, "times spec")):
        raise InputError("times spec needs at least one point")
    return times


def _parse_list(spec: str, what: str = "list") -> list[float]:
    try:
        values = [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError as e:
        raise InputError(f"bad {what} {spec!r}: {e}") from e
    if not all(map(math.isfinite, values)):
        raise InputError(f"bad {what} {spec!r}: values must be finite")
    return values


def _tolerance(text: str) -> float:
    """A --tol value: finite and positive, or no error could ever exceed it."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise InputError(f"must be at least 1, got {value}")
    return value


def _read_arg(arg: str) -> str:
    """A path-or-inline option's text: the named file's contents, else arg itself."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load_symbol_arg(arg: str):
    if arg is None:
        raise InputError("--symbol is required for this command")
    return load_symbol(_read_arg(arg))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Run:
    """Collects artifacts for one CLI invocation and writes the manifest,
    whose config echoes the parsed options but --out."""

    def __init__(self, args: argparse.Namespace):
        self.config = vars(args).copy()
        self.outdir = self.config.pop("out")
        self.command = self.config.pop("command")
        del self.config["func"]
        self.artifacts: list[str] = []
        self.t0 = time.monotonic()
        if self.outdir:
            os.makedirs(self.outdir, exist_ok=True)

    def _write(self, name: str, data: str):
        """Write one file into the output directory atomically and list it."""
        if self.outdir:
            path = os.path.join(self.outdir, name)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(path + ".tmp", path)
            self.artifacts.append(name)

    def write_json(self, name: str, obj):
        self._write(name, _json_text(obj))

    def write_csv(self, name: str, header: list[str], rows: list[list]):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
        self._write(name, buf.getvalue())

    def finish(self):
        # the manifest lists the artifacts written before it, not itself
        self._write("manifest.json", _json_text({
            "command": self.command,
            "config": self.config,
            "version": __version__,
            "wall_time_s": time.monotonic() - self.t0,
            "artifacts": sorted(self.artifacts),
        }))


def _cmd_spectrum(args) -> int:
    u = _load_symbol_arg(args.symbol)
    run = _Run(args)
    dec = eigendecompose(u)
    doc = decomposition_to_json(dec)
    run.write_json("spectrum.json", doc)
    for key in ("lambda", "nu", "two_phi", "gamma"):
        print(f"{key + ':':12}", " ".join(f"{v:.12g}" for v in doc[key]))
    print("genericity: ", doc["genericity"])
    run.finish()
    return 0


_SLOT_NAMES = {"poles": "pole", "coefficients": "coeff"}


def _evolve_cells(row: dict, n: int) -> dict:
    """One trajectory row as `evolve`'s table cells, column name -> value.

    `time` comes first.  Poles and coefficients fill n slots as pole_k_re,
    pole_k_im, coeff_k_re, coeff_k_im, interleaved per k when both are
    present and NaN past the row's own.  Then J is J2 J4 J6 J8, and every
    scalar key (L2, H12, Hdot{s}, remainder_L2) is one column of its name.
    """
    out = {"time": row["time"]}
    slots = [(name, row[key]) for key, name in _SLOT_NAMES.items() if key in row]
    for k in range(n):
        for name, vals in slots:
            z = vals[k] if k < len(vals) else complex(math.nan, math.nan)
            out[f"{name}_{k + 1}_re"], out[f"{name}_{k + 1}_im"] = z.real, z.imag
    for key, val in row.items():
        if key not in ("time", *_SLOT_NAMES):
            out.update(zip(("J2", "J4", "J6", "J8"), val) if key == "J" else [(key, val)])
    return out


def _cmd_evolve(args) -> int:
    u = _load_symbol_arg(args.symbol)
    times = _parse_times(args.times)
    hs = tuple(_parse_list(args.hs)) if args.hs else ()
    observables = tuple(args.observables.split(","))
    for ob in observables:
        if ob not in _OBSERVABLES:
            raise InputError(f"unknown observable {ob!r}; known: {', '.join(_OBSERVABLES)}")
    rows = trajectory(u, times, observables=observables, hs=hs)
    run = _Run(args)
    n = max((len(r[key]) for r in rows for key in _SLOT_NAMES if key in r), default=0)
    cells = [_evolve_cells(r, n) for r in rows]
    header = list(cells[0])
    table = [list(c.values()) for c in cells]
    if args.format == "csv":
        run.write_csv("trajectory.csv", header, table)
    else:
        run.write_json("trajectory.json", {"columns": header, "rows": table})
    print(f"evolved {len(rows)} times; columns: {', '.join(header[:6])}, ...")
    run.finish()
    return 0


def _cmd_solitons(args) -> int:
    u = _load_symbol_arg(args.symbol)
    times = _parse_times(args.times)
    svals = _parse_list(args.s)
    rep = remainder_norms(u, times, svals)
    run = _Run(args)
    run.write_json("solitons.json", {
        "direction": rep.direction,
        "solitons": [
            {
                "amplitude": [sp.amplitude.real, sp.amplitude.imag],
                "pole": [sp.pole.real, sp.pole.imag],
                "speed": sp.speed,
                "frequency": sp.frequency,
            }
            for sp in rep.solitons
        ],
        "s_values": list(rep.s_values),
        "decay_exponents": list(rep.exponents),
    })
    header = ["time"] + [f"remainder_H{s:g}" for s in rep.s_values]
    for k in range(1, len(rep.solitons) + 1):
        header += [f"soliton_{k}_pole_re", f"soliton_{k}_pole_im"]
    tracks = _solitons_at(rep.solitons, rep.times)[1]
    run.write_csv("remainder.csv", header, [
        [t, *map(float, norms), *(v for z in zs.tolist() for v in (z.real, z.imag))]
        for t, norms, zs in zip(rep.times, rep.norms, tracks)])
    print("decay exponents:", " ".join(f"{e:.4f}" for e in rep.exponents))
    run.finish()
    return 0


def _cmd_growth(args) -> int:
    u = _load_symbol_arg(args.symbol)
    times = _parse_times(args.times)
    svals = _parse_list(args.s)
    run = _Run(args)
    out = []
    for s, g in zip(svals, _growth_fits(u, svals, times)):
        out.append({k: g[k] for k in ("s", "slope", "intercept", "h_half_drift")})
        print(f"s={s:g}: slope {g['slope']:.4f}  (h_half drift {g['h_half_drift']:.2e})")
    doc = {"fits": out}
    try:
        rep = nongeneric_analysis(u, times=[t for t in times if t != 0])
        doc["double_eigenvalue"] = {
            "lambda_sq": rep.eigenvalue,
            "soliton_speed": rep.soliton.speed,
            "e2_imag_exponent": rep.e2_imag_exponent,
        }
    except PreconditionError:
        pass
    run.write_json("growth.json", doc)
    run.finish()
    return 0


def _cmd_actionangle(args) -> int:
    run = _Run(args)
    if args.coords:
        try:
            coords = coords_from_json(json.loads(_read_arg(args.coords)))
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
        u, back, err = _chi_inverse(coords)
        doc = {
            "input_coords": coords_to_json(coords),
            "symbol": to_json_dict(u),
            "forward_coords": coords_to_json(back),
            "max_error": err,
        }
        run.write_json("actionangle.json", doc)
        print(f"reconstructed symbol; round-trip error {doc['max_error']:.3e}")
    else:
        u = _load_symbol_arg(args.symbol)
        coords = chi(eigendecompose(u))
        run.write_json("actionangle.json", {"coords": coords_to_json(coords)})
        for key in ("actions_i", "actions_lambda", "angles", "gammas"):
            print(f"{key + ':':15}", " ".join(f"{v:.12g}" for v in getattr(coords, key)))
    run.finish()
    return 0


def _cmd_roundtrip(args) -> int:
    rng = np.random.default_rng(args.seed)
    run = _Run(args)
    worst_coords = worst_symbol = 0.0
    for _ in range(args.count):
        c = random_coords(args.n, rng)
        worst_coords = max(worst_coords, _chi_inverse(c)[2])
        v, dec = _conditioned(args.n, rng, "generic", 0.05, 0.8)   # random_generic's defaults
        worst_symbol = max(worst_symbol, l2_norm(as_hardy(chi_inverse(chi(dec)) - v)))
    run.write_json("roundtrip.json", {
        "count": args.count,
        "n": args.n,
        "max_coords_error": worst_coords,
        "max_symbol_l2_error": worst_symbol,
        "tol": args.tol,
    })
    print(f"coords round trip max error: {worst_coords:.3e}")
    print(f"symbol round trip max L2 error: {worst_symbol:.3e}")
    run.finish()
    if max(worst_coords, worst_symbol) > args.tol:
        raise ToleranceExceeded(f"round-trip error above tolerance {args.tol:g}")
    return 0


def _cmd_validate(args) -> int:
    u = _load_symbol_arg(args.symbol)
    run = _Run(args)
    rep = compare(u, args.t, args.L, args.M, args.dt)
    if args.convergence:
        tc = min(abs(args.t), 1.0) or 1.0
        rep["self_convergence"] = self_convergence(u, tc, args.L, args.M, tc / 25.0)
    run.write_json("validate.json", rep)
    print(f"l2_error: {rep['l2_error']:.3e}  linf_error: {rep['linf_error']:.3e}")
    print(f"j2 drift: oracle {rep['j2_drift_oracle']:.2e} "
          f"explicit {rep['j2_drift_explicit']:.2e}")
    if args.convergence:
        print(f"measured RK4 order: {rep['self_convergence']['order']:.2f}")
    run.finish()
    if rep["l2_error"] > args.tol:
        raise ToleranceExceeded(f"oracle comparison {rep['l2_error']:.3e} "
                                f"above tolerance {args.tol:g}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; nothing mutates it afterwards."""
    p = argparse.ArgumentParser(
        prog="szego",
        description="Exact evolution and spectral analysis for the cubic "
                    "Szego equation with rational data.",
        epilog="Any subcommand accepts '--config FILE' holding flat "
               "'key = value' lines; explicit flags override config values.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, symbol=True):
        if symbol:
            sp.add_argument("--symbol", help="symbol JSON (path or inline)")
        sp.add_argument("--out", help="output directory for artifacts")

    sp = sub.add_parser("spectrum", help="eigendata of the Hankel operator")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("evolve", help="closed-form trajectory table")
    common(sp)
    sp.add_argument("--times", required=True,
                    help="times: 'lin:a:b:n', 'log:a:b:n' or comma list")
    sp.add_argument("--observables", default="poles,coefficients,conserved,norms")
    sp.add_argument("--hs", default="", help="extra homogeneous Sobolev indices")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("solitons", help="soliton resolution report")
    common(sp)
    sp.add_argument("--times", required=True)
    sp.add_argument("--s", default="0,0.5,1", help="Sobolev indices")
    sp.set_defaults(func=_cmd_solitons)

    sp = sub.add_parser("growth", help="Sobolev growth slopes")
    common(sp)
    sp.add_argument("--times", default="log:1e2:1e4:17")
    sp.add_argument("--s", default="0.75,1,2")
    sp.set_defaults(func=_cmd_growth)

    sp = sub.add_parser("actionangle", help="coordinates of a symbol, or "
                                            "reconstruction from --coords")
    common(sp)
    sp.add_argument("--coords", help="coordinates JSON (path or inline)")
    sp.set_defaults(func=_cmd_actionangle)

    sp = sub.add_parser("roundtrip", help="random action-angle round trips")
    common(sp, symbol=False)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--tol", type=_tolerance, default=1e-7, help="tolerance")
    sp.add_argument("--n", type=_at_least_one, default=3,
                    help="symbol degree; the generic sampler reaches 1 to 3, and 4 "
                         "on most seeds (not 24, 39, 40, 61, 99 of 0 to 99); where it "
                         "fails, as from 5 on, the command exits 3")
    sp.add_argument("--count", type=_at_least_one, default=10)
    sp.set_defaults(func=_cmd_roundtrip)

    sp = sub.add_parser("validate", help="pseudo-spectral cross-check")
    common(sp)
    sp.add_argument("--tol", type=_tolerance, default=2e-4, help="tolerance")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--L", type=float, default=200.0)
    sp.add_argument("--M", type=int, default=2**14)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--convergence", action="store_true")
    sp.set_defaults(func=_cmd_validate)
    return p


def _config_token(act: argparse.Action, key: str, val: str) -> list[str]:
    """The command-line form of one config entry, checked like a flag."""
    flag = act.option_strings[-1]
    if act.nargs == 0:   # store_true
        word = val.lower()
        if word not in ("true", "false"):
            raise InputError(f"bad config value for {key!r}: {val!r} is not true or false")
        return [flag] if word == "true" else []
    try:
        checked = act.type(val) if act.type else val
    except ValueError as e:
        raise InputError(f"bad config value for {key!r}: {e}") from e
    if act.choices is not None and checked not in act.choices:
        raise InputError(f"bad config value for {key!r}: {val!r} not in {list(act.choices)}")
    return [f"{flag}={val}"]


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Expand a flat key=value config file into subcommand flags.

    Each entry becomes a `--key=value` token right after the subcommand;
    argparse keeps the last value it sees, so flags given on the command
    line keep precedence.  The parser itself is left untouched.  Returns
    argv with the --config option replaced by the config's tokens.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise InputError("--config needs a file path") from None
    rest = argv[:i] + argv[i + 2:]
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"bad config line: {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                entries[key.replace("-", "_")] = val
    except OSError as e:
        raise InputError(f"cannot read config: {e}") from e
    # find the subcommand parser to learn the argument types
    pos = next((k for k, a in enumerate(rest) if not a.startswith("-")), None)
    choices = parser._subparsers._group_actions[0].choices
    if pos is None or rest[pos] not in choices:
        return rest
    actions = {a.dest: a for a in choices[rest[pos]]._actions
               if a.option_strings and a.dest != "help"}
    tokens = []
    for key, val in entries.items():
        act = actions.get(key)
        if act is None:
            raise InputError(f"unknown config key {key!r}")
        tokens += _config_token(act, key, val)
    return rest[:pos + 1] + tokens + rest[pos + 1:]


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(parser, list(argv))
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:   # argparse printed usage (code 2) or help (code 0)
        return e.code
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PreconditionError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ToleranceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
