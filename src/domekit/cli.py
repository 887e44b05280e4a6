"""Command-line interface exposing every capability with machine-readable output.

Subcommands: bounds eval|table, annulus table, dome build|retract|inj-radius,
lamination roundness|validate, earthquake trace, crescent dilatation,
qc estimate.  Every subcommand supports --format json|csv; output is
deterministic for fixed arguments and seed.  The subcommands and their flags
are the `COMMANDS` table; each handler returns what `_emit` writes.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import annulus as annulus_mod
from . import bounds as bounds_mod
from . import dome as dome_mod
from . import laminations as lam_mod
from . import pleating as pleat_mod
from . import qc as qc_mod
from .crescents import AngleScaling, scaling_dilatation
from .errors import DomekitError, OutOfDomain
from .mobius import INF, is_inf

SCHEMA = "domekit/1"


def _fmt(x) -> str:
    """One CSV cell; None and non-finite floats are empty."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}" if math.isfinite(x) else ""
    return str(x)


def _strict(obj):
    """``obj`` as JSON values: complex as [re, im], numpy as Python values,
    and every non-finite float as None, however deeply nested."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict(v) for v in obj]
    if isinstance(obj, complex):
        return [_strict(obj.real), _strict(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _strict(obj.item())
    return obj


def _emit(args, payload: dict, header: list, rows=None) -> None:
    """Write one result: the payload as JSON, or header and rows as CSV.

    Without ``rows`` the CSV is the single row ``payload[k] for k in header``.
    """
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": f"{args.group} {args.cmd}",
                   **payload}
        print(json.dumps(_strict(payload), indent=2, sort_keys=True,
                         allow_nan=False))
        return
    if rows is None:
        rows = [[payload[k] for k in header]]
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))


def _parse_complex(text: str) -> complex:
    """argparse type: ``inf``, ``RE,IM`` or a complex literal such as ``1+2i``."""
    if text == "inf":
        return INF
    try:
        if "," in text:
            re_, im_ = text.split(",")
            z = complex(float(re_), float(im_))
        else:
            z = complex(text.replace("i", "j"))
    except ValueError:
        z = None
    if z is None or cmath.isnan(z):
        raise argparse.ArgumentTypeError(f"{text!r} is not a complex number")
    return z


def _finite_complex(text: str) -> complex:
    """argparse type: a complex number as `_parse_complex` reads it, but finite."""
    z = _parse_complex(text)
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite complex number")
    return z


def _finite_float(text: str) -> float:
    """argparse type: a finite real number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _int_at_least(low: int, kind: str):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not a {kind} integer")
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


# Subcommand handlers: each returns the arguments of `_emit` after ``args``.


def cmd_bounds_eval(args):
    rep = bounds_mod.BoundReport.evaluate(nu=args.nu, nu_hat=args.nu_hat)
    header = ["nu", "nu_hat"] + sorted(k for k in rep.values
                                       if not k.endswith("_reason"))
    return ({"nu": args.nu, "nu_hat": args.nu_hat, **rep.values,
             "verdicts": rep.verdicts}, header)


def cmd_bounds_table(args):
    header = ["nu", "M", "M_relaxed", "roundness_tight", "roundness_relaxed",
              "lipschitz", "g", "lower_bound"]
    for name, nu in (("nu_min", args.nu_min), ("nu_max", args.nu_max)):
        if not 0 < nu < math.inf:
            raise OutOfDomain(f"{name} = {nu} outside (0, inf)")
    rows = []
    for nu in np.geomspace(args.nu_min, args.nu_max, args.points).tolist():
        values = bounds_mod.BoundReport.evaluate(nu=nu).values
        rows.append([nu] + [values[k] for k in header[1:]])
    return {"rows": [dict(zip(header, r)) for r in rows]}, header, rows


def cmd_annulus_table(args):
    header = ["s", "modulus", "core_length", "nu", "dome_modulus",
              "dome_core_length", "nu_hat", "K", "mod_ratio",
              "ok_K_le_M", "ok_K_le_N", "ok_lower_le_K"]
    rows = []
    for s in np.linspace(args.s_min, args.s_max, args.points):
        g = annulus_mod.annulus_geometry(float(s))
        rep = annulus_mod.verify_bounds(float(s))
        rows.append([g.s, g.modulus, g.core_length, g.nu, g.dome_modulus,
                     g.dome_core_length, g.nu_hat, g.K, g.dome_modulus / g.modulus,
                     rep.K_le_M, rep.K_le_N, rep.lower_le_K])
    return {"rows": [dict(zip(header, r)) for r in rows]}, header, rows


def _hull(args):
    return dome_mod.build_hull(dome_mod.IdealConfiguration.load(args.input))


def cmd_dome_build(args):
    hull = _hull(args)
    if args.mesh:
        with open(args.mesh, "w") as fh:
            fh.write(dome_mod.export_mesh(hull))
    header = ["edge", "v0", "v1", "face0", "face1", "exterior_angle", "fold"]
    rows = [[i, *e.v, *e.faces, e.angle, e.fold] for i, e in enumerate(hull.edges)]
    return dome_mod.hull_to_json(hull), header, rows


def cmd_dome_retract(args):
    res = dome_mod.retract(_hull(args), args.z)
    p = res.point
    payload = {"z": None if is_inf(args.z) else args.z,
               "point": {"x": p.x, "y": p.y, "t": p.t},
               "carrier": list(res.carrier), "busemann_value": res.busemann_value}
    header = ["x", "y", "t", "carrier_kind", "carrier_index", "busemann_value"]
    return payload, header, [[p.x, p.y, p.t, *res.carrier, res.busemann_value]]


def cmd_dome_inj_radius(args):
    hull = _hull(args)
    res = dome_mod.retract(hull, args.z)
    kind, index = res.carrier
    face = index if kind == "face" else hull.edges[index].faces[0]
    est = dome_mod.dome_injectivity_radius(hull, face, res.point, depth=args.depth)
    payload = {"value": est.value, "exact": est.exact,
               "loops_found": est.loops_found, "depth": est.depth}
    return payload, list(payload)


def cmd_lamination_validate(args):
    lam = lam_mod.FiniteLamination.load(args.input)
    return {"ok": True, "n_leaves": len(lam)}, ["ok", "n_leaves"]


def cmd_lamination_roundness(args):
    lam = lam_mod.FiniteLamination.load(args.input)
    payload = {"roundness": lam_mod.roundness(lam)}
    if args.brute_arcs:
        payload["brute_force"] = lam_mod.roundness_brute_force(
            lam, n_arcs=args.brute_arcs, seed=args.seed, threads=args.threads)
        payload["brute_arcs"] = args.brute_arcs
    return payload, list(payload)


def cmd_earthquake_trace(args):
    lam = lam_mod.FiniteLamination.load(args.input)
    t = args.t
    angles = np.linspace(0.0, 2 * math.pi, args.samples, endpoint=False)
    payload = {"t": t}
    if t.imag == 0:
        boundary = pleat_mod._quake(lam, t.real, None).boundary_map().apply_complex
    else:
        ce = pleat_mod.complex_earthquake(lam, t)
        boundary = ce.boundary
        payload["faces"] = [{"gap": gid, "arcs": list(gap.arcs)}
                            for gid, gap in enumerate(ce.plane.complex_.gaps)]
    rows = []
    for a in angles:
        w = boundary(float(a))
        rows.append([float(a), None, None] if is_inf(w)
                    else [float(a), w.real, w.imag])
    header = ["angle", "re", "im"]
    payload["trace"] = [dict(zip(header, r)) for r in rows]
    return payload, header, rows


def cmd_crescent_dilatation(args):
    w = args.w
    scal = AngleScaling(w, args.theta)
    payload = {"w": w, "theta": args.theta,
               "analytic_K": scaling_dilatation(scal),
               "image_angle": scal.image_angle()}
    header = ["theta", "analytic_K", "image_angle"]
    if args.grid:
        chk = qc_mod.verify_scaling_dilatation(w, args.theta, n=args.grid)
        payload.update(grid_sup_K=chk.grid_sup_K,
                       max_abs_deviation=chk.max_abs_deviation)
        header += ["grid_sup_K", "max_abs_deviation"]
    row = [w.real, w.imag] + [payload[k] for k in header]
    return payload, ["w_re", "w_im"] + header, [row]


#: qc estimate fixtures: name -> (grid sample, analytic K) of ``args``; the
#: further fixture "scaling" is `verify_scaling_dilatation` against its closed form
_QC_FIXTURES = {
    "identity": lambda a: (qc_mod.identity_sample(a.grid), 1.0),
    "affine": lambda a: (qc_mod.affine_sample(a.grid), 2.0),
    "power": lambda a: (qc_mod.power_map_sample(a.alpha, a.grid),
                        max(a.alpha, 1.0 / a.alpha)),
    "mobius-far": lambda a: (
        qc_mod.mobius_sample(qc_mod.far_pole_mobius(), a.grid), 1.0),
    "mobius-near": lambda a: (
        qc_mod.mobius_sample(qc_mod.near_pole_mobius(), a.grid), 1.0),
}


def cmd_qc_estimate(args):
    payload = {"fixture": args.fixture, "grid": args.grid}
    if args.fixture == "scaling":
        chk = qc_mod.verify_scaling_dilatation(args.w, args.theta, n=args.grid)
        payload.update(analytic_K=chk.analytic_K, sup_K=chk.grid_sup_K,
                       max_abs_deviation=chk.max_abs_deviation)
        return payload, list(payload)
    grid, analytic = _QC_FIXTURES[args.fixture](args)
    field = qc_mod.beltrami_estimate(grid)
    stats = qc_mod.dilatation_stats(field)
    if args.dump_field:
        with open(args.dump_field, "w") as fh:
            fh.write("x,y,K\n")
            for j, i in zip(*np.nonzero(field.usable)):
                loc = grid.cell_location(int(j), int(i))
                fh.write(f"{loc.real:.17g},{loc.imag:.17g},"
                         f"{field.K[j, i]:.17g}\n")
    payload.update(sup_K=stats.sup, mean_K=stats.mean,
                   quantiles=stats.quantiles, n_cells=stats.n_cells,
                   analytic_K=analytic, sup_location=stats.sup_location)
    return payload, ["fixture", "grid", "sup_K", "mean_K", "n_cells", "analytic_K"]


_INPUT = {"required": True}
_REQUIRED_FLOAT = {"type": float, "required": True}
_REQUIRED_COMPLEX = {"type": _parse_complex, "required": True}
_REQUIRED_FINITE_COMPLEX = {"type": _finite_complex, "required": True}
_POINTS = {"type": _nonnegative_int, "default": 50}

#: group -> command -> (handler, {flag: add_argument keywords}), in help order
COMMANDS = {
    "bounds": {
        "eval": (cmd_bounds_eval, {"--nu": {"type": float},
                                   "--nu-hat": {"type": float}}),
        "table": (cmd_bounds_table, {"--nu-min": _REQUIRED_FLOAT,
                                     "--nu-max": _REQUIRED_FLOAT,
                                     "--points": _POINTS}),
    },
    "annulus": {
        "table": (cmd_annulus_table, {"--s-min": _REQUIRED_FLOAT,
                                      "--s-max": _REQUIRED_FLOAT,
                                      "--points": _POINTS}),
    },
    "dome": {
        "build": (cmd_dome_build, {"--input": _INPUT, "--mesh": {}}),
        "retract": (cmd_dome_retract, {"--input": _INPUT, "--z": _REQUIRED_COMPLEX}),
        "inj-radius": (cmd_dome_inj_radius, {
            "--input": _INPUT, "--z": _REQUIRED_COMPLEX,
            "--depth": {"type": int, "default": 10}}),
    },
    "lamination": {
        "roundness": (cmd_lamination_roundness, {
            "--input": _INPUT, "--brute-arcs": {"type": int, "default": 0}}),
        "validate": (cmd_lamination_validate, {"--input": _INPUT}),
    },
    "earthquake": {
        "trace": (cmd_earthquake_trace, {
            "--input": _INPUT,
            "--t": {**_REQUIRED_FINITE_COMPLEX, "help": "complex parameter RE[,IM]"},
            "--samples": {"type": _nonnegative_int, "default": 64}}),
    },
    "crescent": {
        "dilatation": (cmd_crescent_dilatation, {
            "--w": {**_REQUIRED_FINITE_COMPLEX,
                    "help": "complex scaling parameter RE[,IM]"},
            "--theta": {"type": _finite_float, "required": True},
            "--grid": {"type": int, "default": 0}}),
    },
    "qc": {
        "estimate": (cmd_qc_estimate, {
            "--fixture": {"required": True, "choices": (*_QC_FIXTURES, "scaling")},
            "--grid": {"type": int, "default": 512},
            "--alpha": {"type": _finite_float, "default": 2.0},
            "--w": {"type": _finite_complex, "default": "0,1"},
            "--theta": {"type": _finite_float, "default": math.pi / 2},
            "--dump-field": {"help": "write the per-cell K field to this CSV path"}}),
    },
}

#: flags every command takes
_COMMON = {
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--seed": {"type": _nonnegative_int, "default": 0},
    "--threads": {"type": _positive_int},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="domekit", description="hyperbolic-geometry engine: bounds, annuli, "
        "domes, laminations, earthquakes, crescents, qc estimation")
    groups = ap.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        sub = groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        for name, (handler, flags) in commands.items():
            p = sub.add_parser(name)
            for flag, kwargs in {**flags, **_COMMON}.items():
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, *args.func(args))
    except DomekitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
    else:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
