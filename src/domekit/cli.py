"""Command-line interface exposing every capability with machine-readable output.

Subcommands: bounds eval|table, annulus table, dome build|retract|inj-radius,
lamination roundness|validate, earthquake trace, crescent dilatation,
qc estimate.  Every subcommand supports --format json|csv; output is
deterministic for fixed arguments and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import annulus as annulus_mod
from . import bounds as bounds_mod
from . import dome as dome_mod
from . import laminations as lam_mod
from . import pleating as pleat_mod
from . import qc as qc_mod
from .crescents import AngleScaling, scaling_dilatation
from .errors import DomekitError, NonpositiveInput
from .mobius import INF, is_inf

SCHEMA = "domekit/1"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(args, payload: dict, csv_rows=None, csv_header=None):
    if args.format == "json":
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    else:
        if csv_rows is None:
            csv_header = sorted(payload)
            csv_rows = [[payload[k] for k in csv_header]]
        print(",".join(csv_header))
        for row in csv_rows:
            print(",".join(_fmt(v) for v in row))


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _parse_complex(text: str) -> complex:
    if text == "inf":
        return INF
    if "," in text:
        re_, im_ = text.split(",")
        return complex(float(re_), float(im_))
    return complex(text.replace("i", "j"))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("DOMEKIT_THREADS")
    if env:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise NonpositiveInput(f"DOMEKIT_THREADS: {exc}") from None
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_bounds_eval(args) -> int:
    rep = bounds_mod.BoundReport.evaluate(nu=args.nu, nu_hat=args.nu_hat)
    payload = {"command": "bounds eval", "nu": args.nu, "nu_hat": args.nu_hat}
    payload.update(rep.values)
    payload["verdicts"] = rep.verdicts
    header = ["nu", "nu_hat"] + sorted(
        k for k in rep.values if not k.endswith("_reason")
    )
    row = [args.nu, args.nu_hat] + [rep.values[k] for k in header[2:]]
    _emit(args, payload, [row], header)
    return 0


def cmd_bounds_table(args) -> int:
    nus = np.geomspace(args.nu_min, args.nu_max, args.points)
    header = ["nu", "M", "M_relaxed", "roundness_tight", "roundness_relaxed",
              "lipschitz", "g", "lower_bound"]
    rows = []
    for nu in nus:
        nu = float(nu)
        tight, relaxed = bounds_mod.roundness_bound_domain(nu)
        low = bounds_mod.dilatation_lower_bound(nu) if 0 < nu < 0.5 else None
        rows.append([
            nu,
            bounds_mod.domain_dilatation_bound(nu),
            bounds_mod.domain_dilatation_bound_relaxed(nu),
            tight, relaxed,
            bounds_mod.retraction_lipschitz_bound(nu),
            bounds_mod.dome_injectivity_lower(nu),
            low,
        ])
    payload = {
        "command": "bounds table",
        "rows": [dict(zip(header, r)) for r in rows],
    }
    _emit(args, payload, rows, header)
    return 0


def cmd_annulus_table(args) -> int:
    ss = np.linspace(args.s_min, args.s_max, args.points)
    header = ["s", "modulus", "core_length", "nu", "dome_modulus",
              "dome_core_length", "nu_hat", "K", "mod_ratio",
              "ok_K_le_M", "ok_K_le_N", "ok_lower_le_K"]
    rows = []
    for s in ss:
        g = annulus_mod.annulus_geometry(float(s))
        rep = annulus_mod.verify_bounds(float(s))
        rows.append([
            g.s, g.modulus, g.core_length, g.nu, g.dome_modulus,
            g.dome_core_length, g.nu_hat, g.K, g.dome_modulus / g.modulus,
            rep.K_le_M, rep.K_le_N,
            rep.lower_le_K if rep.lower_le_K is not None else None,
        ])
    payload = {
        "command": "annulus table",
        "rows": [dict(zip(header, r)) for r in rows],
    }
    _emit(args, payload, rows, header)
    return 0


def cmd_dome_build(args) -> int:
    cfg = dome_mod.IdealConfiguration.load(args.input)
    hull = dome_mod.build_hull(cfg)
    if args.mesh:
        with open(args.mesh, "w") as fh:
            fh.write(dome_mod.export_mesh(hull))
    payload = {"command": "dome build", **dome_mod.hull_to_json(hull)}
    header = ["edge", "v0", "v1", "face0", "face1", "exterior_angle", "fold"]
    rows = [
        [i, e.v[0], e.v[1], e.faces[0], e.faces[1], e.angle, e.fold]
        for i, e in enumerate(hull.edges)
    ]
    _emit(args, payload, rows, header)
    return 0


def cmd_dome_retract(args) -> int:
    cfg = dome_mod.IdealConfiguration.load(args.input)
    hull = dome_mod.build_hull(cfg)
    z = _parse_complex(args.z)
    res = dome_mod.retract(hull, z)
    payload = {
        "command": "dome retract",
        "z": None if is_inf(z) else z,
        "point": {"x": res.point.x, "y": res.point.y, "t": res.point.t},
        "carrier": list(res.carrier),
        "busemann_value": res.busemann_value,
    }
    header = ["x", "y", "t", "carrier_kind", "carrier_index", "busemann_value"]
    rows = [[res.point.x, res.point.y, res.point.t,
             res.carrier[0], res.carrier[1], res.busemann_value]]
    _emit(args, payload, rows, header)
    return 0


def cmd_dome_inj_radius(args) -> int:
    cfg = dome_mod.IdealConfiguration.load(args.input)
    hull = dome_mod.build_hull(cfg)
    z = _parse_complex(args.z)
    res = dome_mod.retract(hull, z)
    if res.carrier[0] != "face":
        raise DomekitError("retraction lands on an edge; pick another z")
    est = dome_mod.dome_injectivity_radius(
        hull, res.carrier[1], res.point, depth=args.depth
    )
    payload = {
        "command": "dome inj-radius",
        "value": est.value,
        "exact": est.exact,
        "loops_found": est.loops_found,
        "depth": est.depth,
    }
    header = ["value", "exact", "loops_found", "depth"]
    _emit(args, payload, [[est.value, est.exact, est.loops_found, est.depth]],
          header)
    return 0


def cmd_lamination_validate(args) -> int:
    lam = lam_mod.FiniteLamination.load(args.input)
    payload = {"command": "lamination validate", "ok": True,
               "n_leaves": len(lam)}
    _emit(args, payload, [[True, len(lam)]], ["ok", "n_leaves"])
    return 0


def cmd_lamination_roundness(args) -> int:
    lam = lam_mod.FiniteLamination.load(args.input)
    exact = lam_mod.roundness(lam)
    payload = {"command": "lamination roundness", "roundness": exact}
    header = ["roundness"]
    row = [exact]
    if args.brute_arcs:
        brute = lam_mod.roundness_brute_force(
            lam, n_arcs=args.brute_arcs, seed=args.seed, threads=_threads(args)
        )
        payload["brute_force"] = brute
        payload["brute_arcs"] = args.brute_arcs
        header += ["brute_force", "brute_arcs"]
        row += [brute, args.brute_arcs]
    _emit(args, payload, [row], header)
    return 0


def cmd_earthquake_trace(args) -> int:
    lam = lam_mod.FiniteLamination.load(args.input)
    t = _parse_complex(args.t)
    angles = np.linspace(0.0, 2 * math.pi, args.samples, endpoint=False)
    rows = []
    if t.imag == 0:
        quake = pleat_mod._earthquake_signed(
            lam, [t.real * w for w in lam.weights], None
        )
        bm = quake.boundary_map()
        for a in angles:
            w = bm.apply_complex(float(a))
            rows.append([float(a), w.real, w.imag])
        faces = None
    else:
        ce = pleat_mod.complex_earthquake(lam, t)
        for a in angles:
            w = ce.boundary(float(a))
            if is_inf(w):
                rows.append([float(a), math.inf, math.inf])
            else:
                rows.append([float(a), w.real, w.imag])
        faces = [
            {"gap": f["gap"], "arcs": f["arcs"]}
            for f in ce.plane.faces()
        ]
    payload = {
        "command": "earthquake trace",
        "t": t,
        "trace": [{"angle": r[0], "re": r[1], "im": r[2]} for r in rows],
    }
    if faces is not None:
        payload["faces"] = faces
    _emit(args, payload, rows, ["angle", "re", "im"])
    return 0


def cmd_crescent_dilatation(args) -> int:
    w = _parse_complex(args.w)
    scal = AngleScaling(w, args.theta)
    analytic = scaling_dilatation(scal)
    payload = {
        "command": "crescent dilatation",
        "w": w,
        "theta": args.theta,
        "analytic_K": analytic,
        "image_angle": scal.image_angle(),
    }
    header = ["w_re", "w_im", "theta", "analytic_K", "image_angle"]
    row = [w.real, w.imag, args.theta, analytic, scal.image_angle()]
    if args.grid:
        chk = qc_mod.verify_scaling_dilatation(w, args.theta, n=args.grid)
        payload["grid_sup_K"] = chk.grid_sup_K
        payload["max_abs_deviation"] = chk.max_abs_deviation
        header += ["grid_sup_K", "max_abs_deviation"]
        row += [chk.grid_sup_K, chk.max_abs_deviation]
    _emit(args, payload, [row], header)
    return 0


def cmd_qc_estimate(args) -> int:
    name = args.fixture
    analytic = None
    if name == "identity":
        grid = qc_mod.identity_sample(args.grid)
        analytic = 1.0
    elif name == "affine":
        grid = qc_mod.affine_sample(args.grid)
        analytic = 2.0
    elif name == "power":
        grid = qc_mod.power_map_sample(args.alpha, args.grid)
        analytic = max(args.alpha, 1.0 / args.alpha)
    elif name == "mobius-far":
        grid = qc_mod.mobius_sample(qc_mod.far_pole_mobius(), args.grid)
        analytic = 1.0
    elif name == "mobius-near":
        grid = qc_mod.mobius_sample(qc_mod.near_pole_mobius(), args.grid)
        analytic = 1.0
    elif name == "scaling":
        w = _parse_complex(args.w)
        chk = qc_mod.verify_scaling_dilatation(w, args.theta, n=args.grid)
        payload = {
            "command": "qc estimate", "fixture": name, "grid": args.grid,
            "analytic_K": chk.analytic_K, "sup_K": chk.grid_sup_K,
            "max_abs_deviation": chk.max_abs_deviation,
        }
        header = ["fixture", "grid", "analytic_K", "sup_K", "max_abs_deviation"]
        _emit(args, payload,
              [[name, args.grid, chk.analytic_K, chk.grid_sup_K,
                chk.max_abs_deviation]], header)
        return 0
    else:
        raise DomekitError(f"unknown fixture {name!r}")
    field = qc_mod.beltrami_estimate(grid)
    stats = qc_mod.dilatation_stats(field)
    if args.dump_field:
        usable = field.valid & ~field.degenerate & ~field.orientation_reversing
        with open(args.dump_field, "w") as fh:
            fh.write("x,y,K\n")
            for j, i in zip(*np.nonzero(usable)):
                loc = grid.cell_location(int(j), int(i))
                fh.write(f"{loc.real:.17g},{loc.imag:.17g},"
                         f"{field.K[j, i]:.17g}\n")
    payload = {
        "command": "qc estimate", "fixture": name, "grid": args.grid,
        "sup_K": stats.sup, "mean_K": stats.mean,
        "quantiles": stats.quantiles, "n_cells": stats.n_cells,
        "analytic_K": analytic,
        "sup_location": stats.sup_location,
    }
    header = ["fixture", "grid", "sup_K", "mean_K", "n_cells", "analytic_K"]
    _emit(args, payload,
          [[name, args.grid, stats.sup, stats.mean, stats.n_cells, analytic]],
          header)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="domekit",
        description="hyperbolic-geometry engine: bounds, annuli, domes, "
                    "laminations, earthquakes, crescents, qc estimation",
    )
    sub = ap.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=_positive_int, default=None)

    g_bounds = sub.add_parser("bounds").add_subparsers(dest="cmd", required=True)
    p = g_bounds.add_parser("eval")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--nu-hat", dest="nu_hat", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_bounds_eval)
    p = g_bounds.add_parser("table")
    p.add_argument("--nu-min", dest="nu_min", type=float, required=True)
    p.add_argument("--nu-max", dest="nu_max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_bounds_table)

    g_ann = sub.add_parser("annulus").add_subparsers(dest="cmd", required=True)
    p = g_ann.add_parser("table")
    p.add_argument("--s-min", dest="s_min", type=float, required=True)
    p.add_argument("--s-max", dest="s_max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_annulus_table)

    g_dome = sub.add_parser("dome").add_subparsers(dest="cmd", required=True)
    p = g_dome.add_parser("build")
    p.add_argument("--input", required=True)
    p.add_argument("--mesh", default=None)
    common(p)
    p.set_defaults(func=cmd_dome_build)
    p = g_dome.add_parser("retract")
    p.add_argument("--input", required=True)
    p.add_argument("--z", required=True)
    common(p)
    p.set_defaults(func=cmd_dome_retract)
    p = g_dome.add_parser("inj-radius")
    p.add_argument("--input", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--depth", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_dome_inj_radius)

    g_lam = sub.add_parser("lamination").add_subparsers(dest="cmd", required=True)
    p = g_lam.add_parser("roundness")
    p.add_argument("--input", required=True)
    p.add_argument("--brute-arcs", dest="brute_arcs", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_lamination_roundness)
    p = g_lam.add_parser("validate")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_lamination_validate)

    g_eq = sub.add_parser("earthquake").add_subparsers(dest="cmd", required=True)
    p = g_eq.add_parser("trace")
    p.add_argument("--input", required=True)
    p.add_argument("--t", required=True, help="complex parameter RE[,IM]")
    p.add_argument("--samples", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_earthquake_trace)

    g_cre = sub.add_parser("crescent").add_subparsers(dest="cmd", required=True)
    p = g_cre.add_parser("dilatation")
    p.add_argument("--w", required=True, help="complex scaling parameter RE[,IM]")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_crescent_dilatation)

    g_qc = sub.add_parser("qc").add_subparsers(dest="cmd", required=True)
    p = g_qc.add_parser("estimate")
    p.add_argument("--fixture", required=True,
                   choices=("identity", "affine", "power", "mobius-far",
                            "mobius-near", "scaling"))
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--w", default="0,1")
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--dump-field", dest="dump_field", default=None,
                   help="write the per-cell K field to this CSV path")
    common(p)
    p.set_defaults(func=cmd_qc_estimate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomekitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
