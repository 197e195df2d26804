"""Command line driver: validation, fans, tracing, and self tests.

Every subcommand loads a medium description file, runs its computation, and
writes a JSON report {command, medium_digest, params, results, failures}.
The exit status is 0 exactly when the failure list is empty.  Reports are
deterministic (byte-identical) for a fixed medium file, seed, and parameter
set.  Complex numbers are serialized as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import Counter

import numpy as np

from . import boundary as bd
from . import polarization as pol
from . import rays
from .errors import ElastorayError
from .medium import check_class_membership, load_medium, medium_digest

DEFAULT_TOL = {
    "symbol": 1e-10,
    "residue": 1e-8,
    "a_one": 1e-12,
    "dn": 1e-10,
    "frame": 1e-10,
    "companion_identity": 1e-12,
    "companion_eigs": 1e-10,
    "drift": 1e-9,
    "recover": 1e-6,
}


def _jsonable(obj):
    if type(obj) is float:          # the common leaf
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biufc" and np.isfinite(obj).all():
            # finite numbers convert as a whole, complex ones as [re, im]
            if obj.dtype.kind == "c":
                obj = np.stack([obj.real, obj.imag], axis=-1)
            return obj.tolist()
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _gamma_dict(gamma):
    return {"t": gamma.t, "x": gamma.x.tolist(), "tau": gamma.tau,
            "xi_t": gamma.xi_t.tolist()}


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_fan_csv(path, fieldnames, rows, extra=lambda row: {}):
    """The fan ``rows`` not skipped as CSV: their keys among ``fieldnames``,
    x1..x3, xi1..xi3 and the columns ``extra(row)``."""
    _write_csv(path, fieldnames, [
        {**{key: row[key] for key in fieldnames if key in row},
         **{f"x{i+1}": row["x"][i] for i in range(3)},
         **{f"xi{i+1}": row["xi_t"][i] for i in range(3)}, **extra(row)}
        for row in rows if "skipped" not in row])


def _covector_fan(m, n, seed, delta):
    """Seeded boundary covector fan (x, nu, xi_t, tau) shared by classify /
    roots / dn / frame; ``delta`` defaults to the medium's class parameter,
    else 0.5."""
    if delta is None:
        delta = m.class_params.delta if m.class_params is not None else 0.5
    return bd.sample_boundary_covectors(m, n, np.random.default_rng(seed),
                                        delta)


def _fan_rows(fan, results, describe):
    """One report row per fan covector: its coordinates and ``describe(i,
    result)``, or as ``skipped`` its result when that is an error."""
    x, _, xi_t, tau = fan
    return [{"t": 0.0, "x": x[i].tolist(), "tau": float(tau[i]),
             "xi_t": xi_t[i].tolist(),
             **({"skipped": str(res)} if isinstance(res, ElastorayError)
                else describe(i, res))}
            for i, res in enumerate(results)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(m, args):
    failures = []
    if m.class_params is None:
        failures.append("medium file has no class_params block")
        return {"class_report": None}, failures
    report = check_class_membership(m, grid_resolution=args.grid)
    for name in ("lame", "stress", "positivity", "divergence"):
        if not getattr(report, f"{name}_ok"):
            failures.append(f"class condition failed: {name}")
    return {"class_report": report.to_dict()}, failures


def cmd_classify(m, args):
    fan = _covector_fan(m, args.fan_n, args.seed, args.delta)
    _, _, xi_t, tau = fan
    table = bd.RootCore(m, *fan).table
    delta = m.class_params.delta if m.class_params is not None else None

    def describe(i, _):
        in_gd = (None if delta is None else
                 bd._in_gamma_delta(tau[i], xi_t[i], delta))
        return table.region_label(i, in_gd).to_dict()

    rows = _fan_rows(fan, [table.form_error(i) if bad else None
                           for i, bad in enumerate(table.nonpositive)],
                     describe)
    skipped = [row["skipped"] for row in rows if "skipped" in row]
    failures = [f"{len(skipped)} of {len(rows)} covectors skipped: "
                f"{skipped[0]}"] if skipped else []
    if args.csv:
        _write_fan_csv(args.csv, ["t", "x1", "x2", "x3", "tau", "xi1", "xi2",
                                  "xi3", "s_label", "p_label", "combined",
                                  "in_gamma_delta"], rows)
    counts = Counter(row["combined"] for row in rows if "skipped" not in row)
    return {"rows": rows, "region_counts": dict(counts)}, failures


def cmd_roots(m, args):
    x, nu, xi_t, tau = _covector_fan(m, args.fan_n, args.seed, args.delta)
    # structured rows: normal incidence, and an exactly P-glancing covector
    # at the compressional hyperbolic radius (flagged, not fatal)
    u = xi_t[0] / np.linalg.norm(xi_t[0])
    r_p = rays._hyperbolic_radius(m, "P", x[0], nu[0], u, float(tau[0]))
    fan = [np.concatenate([a[:1], a[:1], a]) for a in (x, nu, xi_t, tau)]
    fan[2][:2] = np.zeros(3), r_p * u
    failures = []
    b = bd.SymbolBatch(bd.RootCore(m, *fan))
    # each row's error, else its roots
    results = [b.errors[i] or b.char_roots(i) for i in range(len(b.ok))]
    rows = _fan_rows(fan, results, lambda i, roots: {
        "z_s_forward": roots.s.z_forward, "z_s_backward": roots.s.z_backward,
        "z_p_forward": roots.p.z_forward, "z_p_backward": roots.p.z_backward,
        "c_s": roots.s.c_forward, "c_p": roots.p.c_forward,
        "s_real": roots.s.real, "p_real": roots.p.real,
        "xi_dot": roots.xi_dot,
        "normalized_product": roots.normalized_product})
    if m.class_params is None:
        scan_dict = "skipped: medium file has no class_params block"
    else:
        try:
            scan = bd.lopatinski_margin(m, sample_count=args.samples,
                                        seed=args.seed)
            scan_dict = scan.to_dict()
            scan_dict["argmin"] = _gamma_dict(scan.argmin)
        except ElastorayError as exc:
            failures.append(f"lopatinski: {exc}")
            scan_dict = None
    if args.csv:
        _write_fan_csv(args.csv, [
            "x1", "x2", "x3", "tau", "xi1", "xi2", "xi3", "z_s_forward_re",
            "z_s_forward_im", "z_p_forward_re", "z_p_forward_im",
            "normalized_product"], rows, lambda row: {
                f"{key}_{part}": getattr(row[key], attr)
                for key in ("z_s_forward", "z_p_forward")
                for part, attr in (("re", "real"), ("im", "imag"))})
    return {"rows": rows, "lopatinski": scan_dict}, failures


def cmd_dn(m, args):
    tol = args.tol if args.tol is not None else DEFAULT_TOL["dn"]
    failures = []
    fan = _covector_fan(m, args.fan_n, args.seed, args.delta)
    dn = bd.dn_batch(m, *fan)

    def describe(i, _):
        rel = dn.values["rel_residual"][i]
        if rel > tol:
            failures.append(
                f"covector {i}: DN route disagreement {rel:.3e} > {tol:.0e}")
        return {"matrix": dn.values["matrix"][i], "rel_residual": rel}

    rows = _fan_rows(fan, dn.errors, describe)
    n_checked = sum("skipped" not in row for row in rows)
    if n_checked == 0:
        failures.append("no covector admitted a DN symbol (all skipped)")
    return {"rows": rows, "n_checked": n_checked, "tol": tol}, failures


def _mute_residuals(frames, nu, xi_t):
    """Muting residual of each frame row with xi_t != 0, else NaN."""
    muted = frames.ok & (np.linalg.norm(xi_t, axis=-1) > 0)
    out = np.full(len(muted), np.nan)
    if muted.any():
        proj = frames.values["projectors"][muted]
        out[muted] = pol.muting_residuals(proj[:, 2] + proj[:, 3], nu[muted],
                                          xi_t[muted])
    return out


def cmd_frame(m, args):
    tol = args.tol if args.tol is not None else DEFAULT_TOL["frame"]
    failures = []
    fan = _covector_fan(m, args.fan_n, args.seed, args.delta)
    frames = pol.frame_batch(m, *fan)
    v, mute = frames.values, _mute_residuals(frames, fan[1], fan[2])

    def describe(i, _):
        kind = "hyperbolic" if v["hyperbolic"][i] else "mixed"
        resid = v["projector_residual"][i]
        row = {"kind": kind, "cond": v["cond"][i],
               "ranks": {tag: j - k for tag, k, j in pol.BLOCKS[kind]},
               "projector_residual": resid}
        if not np.isnan(mute[i]):
            row["mute_residual"] = mute[i]
            if mute[i] > tol:
                failures.append(f"covector {i}: muting residual "
                                f"{mute[i]:.3e} > {tol:.0e}")
        if resid > tol:
            failures.append(
                f"covector {i}: projector residual {resid:.3e} > {tol:.0e}")
        return row

    rows = _fan_rows(fan, frames.errors, describe)
    n_checked = sum("skipped" not in row for row in rows)
    if n_checked == 0:
        failures.append("no covector admitted a polarization frame")
    return {"rows": rows, "n_checked": n_checked, "tol": tol}, failures


def cmd_trace(m, args):
    rng = np.random.default_rng(args.seed)
    probes = rays.probe_fan(m, 1, rng, tau=args.tau)
    gamma = probes[0]
    failures = []
    if args.depth > 0:
        result = rays.broken_transport(m, gamma, depth=args.depth,
                                       t_max=args.tmax)
        events = [{"gamma": _gamma_dict(ev.gamma), "mode": ev.mode,
                   "order_index": ev.order_index,
                   "n_reflections": ev.n_reflections}
                  for ev in result.events]
        results = {"probe": _gamma_dict(gamma), "events": events,
                   "reports": result.reports}
    else:
        entry = rays.trace_leg(m, gamma, args.mode, collect=bool(args.csv))
        results = {"probe": _gamma_dict(gamma), "leg": entry.to_dict()}
        if entry.drift_max > DEFAULT_TOL["drift"]:
            failures.append(f"on-shell drift {entry.drift_max:.3e}")
        if args.csv and entry.samples is not None:
            fields = ["s", "t", "x1", "x2", "x3", "xi1", "xi2", "xi3"]
            csv_rows = [dict(zip(fields, row)) for row in entry.samples]
            _write_csv(args.csv, fields, csv_rows)
    return results, failures


def _leg_pairs(m, probes):
    """{"S": entry, "P": entry} per probe, all legs traced as one batch; the
    first failing leg, in probe order and S before P, raises."""
    modes = ("S", "P")
    entries, _ = rays.lens_map_table(
        m, [mode for _ in probes for mode in modes],
        [gamma for gamma in probes for _ in modes])
    return [dict(zip(modes, entries[2 * i:2 * i + 2]))
            for i in range(len(probes))]


def cmd_lensmap(m, args):
    rng = np.random.default_rng(args.seed)
    probes = rays.probe_fan(m, args.fan_n, rng, tau=args.tau)
    failures = []
    table = _leg_pairs(m, probes)
    rows = []
    for i, pair in enumerate(table):
        rows.append({"probe_index": i, "S": pair["S"].to_dict(),
                     "P": pair["P"].to_dict()})
        for mode in ("S", "P"):
            if pair[mode].drift_max > DEFAULT_TOL["drift"]:
                failures.append(f"probe {i} mode {mode}: drift "
                                f"{pair[mode].drift_max:.3e}")
    if args.csv:
        fields = ["probe_index", "mode", "travel_time",
                  "x_in1", "x_in2", "x_in3", "x_out1", "x_out2", "x_out3"]
        csv_rows = []
        for i, pair in enumerate(table):
            for mode in ("S", "P"):
                e = pair[mode]
                row = {"probe_index": i, "mode": mode,
                       "travel_time": e.travel_time}
                row.update({f"x_in{k+1}": e.gamma_in.x[k] for k in range(3)})
                row.update({f"x_out{k+1}": e.gamma_out.x[k] for k in range(3)})
                csv_rows.append(row)
        _write_csv(args.csv, fields, csv_rows)
    return {"rows": rows, "n_probes": len(probes)}, failures


def cmd_distance(m, args):
    rng = np.random.default_rng(args.seed)
    pts = m.domain.sample_boundary(args.points, rng)
    failures = []
    rows = []
    pairs = [(i, j) for i in range(args.points) for j in range(args.points)
             if i < j]
    modes = ("S", "P")
    solved = iter(rays.boundary_distances(
        m, [{"mode": mode, "x_from": pts[i], "y_to": pts[j],
             "tau": args.tau, "n_starts": args.starts}
            for i, j in pairs for mode in modes]))
    for i, j in pairs:
        out = {"from": pts[i].tolist(), "to": pts[j].tolist()}
        for mode in modes:
            res = next(solved)
            out[mode] = {"distance": res.distance, "miss": res.miss,
                         "n_legs": res.n_legs, "connected": res.connected,
                         "failed_legs": res.failed_legs}
            if not res.connected:
                out[mode]["message"] = res.message
        rows.append(out)
        for mode in modes:
            if not out[mode]["connected"]:
                failures.append(f"{out['from']} -> {out['to']} mode {mode}: "
                                f"{out[mode]['message']}")
    return {"rows": rows}, failures


def cmd_recover(m, args):
    rng = np.random.default_rng(args.seed)
    probes = rays.probe_fan(m, args.probes, rng, tau=args.tau)
    tol = args.tol if args.tol is not None else DEFAULT_TOL["recover"]
    report = rays.recover_lens_maps(m, probes, depth=args.depth)
    failures = []
    for name in ("max_dx", "max_dxi", "max_dt"):
        val = getattr(report, name)
        if val > tol:
            failures.append(f"recovery mismatch {name} = {val:.3e} > {tol:.0e}")
    if report.max_mode_separation <= 0.1:
        failures.append("shear and compressional arrivals not separated")
    return {"report": report.to_dict(), "tol": tol}, failures


def _interior_covectors(m, n, rng):
    x = m.domain.sample_interior(n, rng)
    xi = rng.standard_normal((n, 3))
    xi *= np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))[:, None]
    tau = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
    return x, tau, xi


def cmd_selftest(m, args):
    failures = []
    results = {}
    rng = np.random.default_rng(args.seed)

    # factorization identities of the principal symbol
    x, tau, xi = _interior_covectors(m, args.samples, rng)
    p, pt, qs, qp = bd.principal_symbol_batch(m, x, tau, xi)
    prod = np.einsum("nij,njk->nik", pt, p)
    target = (qs * qp)[:, None, None] * np.eye(3)
    fact = np.abs(prod - target).max(axis=(1, 2))
    fact_rel = float(np.max(fact / np.maximum(1.0, np.abs(qs * qp))))
    det_err = np.abs(np.linalg.det(p) - qs * qs * qp)
    det_rel = float(np.max(det_err / np.maximum(1.0, np.abs(qs * qs * qp))))
    results["factorization_residual"] = fact_rel
    results["determinant_residual"] = det_rel
    if fact_rel > DEFAULT_TOL["symbol"]:
        failures.append(f"symbol factorization residual {fact_rel:.3e}")
    if det_rel > DEFAULT_TOL["symbol"]:
        failures.append(f"symbol determinant residual {det_rel:.3e}")
    if not np.all(qp < qs):
        failures.append("q_P < q_S violated on interior sample")

    # boundary machinery on a covector fan, each quantity in one batch
    fan = _covector_fan(m, 50, args.seed + 1, None)
    res, quad, dn, comp, frames = (batch(m, *fan) for batch in (
        bd.residue_batch, bd.quadrature_batch, bd.dn_batch, bd.companion_batch,
        pol.frame_batch))
    margin = res.table.margin
    mute = _mute_residuals(frames, fan[1], fan[2])
    worst = {"residue": 0.0, "a_one": 0.0, "dn": 0.0, "frame": 0.0,
             "mute": 0.0, "companion_identity": 0.0, "companion_eigs": 0.0}
    n_res = n_dn = n_frame = 0
    for i in np.flatnonzero(res.ok):
        data = res.row(i)
        # 256-node quadrature resolves the residues only away from glancing
        if margin[i] >= 5e-2:
            q = quad.row(i)
            n_res += 1
            scale = max(np.linalg.norm(data["a0"]), np.linalg.norm(data["a1"]),
                        1e-300)
            worst["residue"] = max(
                worst["residue"],
                float(np.linalg.norm(data["a0"] - q["a0"]) / scale),
                float(np.linalg.norm(data["a1"] - q["a1"]) / scale))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        (z_s, z_p), (xi_s, xi_p) = data["z"], data["xi"]
        v_perp = v - xi_p * (xi_p @ v) / (xi_p @ xi_p)
        lhs = data["a1"] @ v_perp - z_s * (data["a0"] @ v_perp)
        worst["a_one"] = max(worst["a_one"], float(np.linalg.norm(lhs)))
        lhs = data["a1"] @ xi_s - z_p * (data["a0"] @ xi_s)
        worst["a_one"] = max(worst["a_one"],
                             float(np.linalg.norm(lhs) / np.linalg.norm(xi_s)))
        if dn.errors[i] is None:
            n_dn += 1
            worst["dn"] = max(worst["dn"], dn.values["rel_residual"][i])
        if comp.errors[i] is None:
            c = comp.row(i)
            worst["companion_identity"] = max(worst["companion_identity"],
                                              c["identity_residual"])
            worst["companion_eigs"] = max(worst["companion_eigs"],
                                          c["eigenvalue_error"])
            if not c["kernel_ok"]:
                failures.append("companion kernel mismatch")
        if frames.errors[i] is None:
            n_frame += 1
            worst["frame"] = max(worst["frame"],
                                 frames.values["projector_residual"][i])
            if not np.isnan(mute[i]):
                worst["mute"] = max(worst["mute"], mute[i])
    results["boundary_worst"] = worst
    results["boundary_counts"] = {"residue": n_res, "dn": n_dn,
                                  "frame": n_frame}
    for key, tol_key in (("residue", "residue"), ("a_one", "a_one"),
                         ("dn", "dn"), ("frame", "frame"), ("mute", "frame"),
                         ("companion_identity", "companion_identity"),
                         ("companion_eigs", "companion_eigs")):
        if worst[key] > DEFAULT_TOL[tol_key]:
            failures.append(f"{key} residual {worst[key]:.3e} exceeds "
                            f"{DEFAULT_TOL[tol_key]:.0e}")

    # Lopatinski scan
    try:
        scan = bd.lopatinski_margin(m, sample_count=args.samples * 5,
                                    seed=args.seed + 2)
        results["lopatinski_min"] = scan.min_normalized
    except ElastorayError as exc:
        failures.append(f"lopatinski: {exc}")

    # ray legs: drift, exact tau, reflection invariants
    probes = rays.probe_fan(m, 10, rng)
    drift_worst = 0.0
    for gamma, pair in zip(probes, _leg_pairs(m, probes)):
        for entry in pair.values():
            drift_worst = max(drift_worst, entry.drift_max)
            if entry.gamma_out.tau != gamma.tau:
                failures.append("tau not exactly conserved along a leg")
    results["drift_worst"] = drift_worst
    if drift_worst > DEFAULT_TOL["drift"]:
        failures.append(f"on-shell drift {drift_worst:.3e}")

    return results, failures


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return integer


def _real(test, requirement):
    """argparse type: a finite float passing ``test``."""
    def real(text):
        value = float(text)
        if not (math.isfinite(value) and test(value)):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value
    return real


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elastoray",
        description="Boundary symbol analysis and ray transport for "
                    "residually stressed isotropic elastic media.")
    parser.add_argument("--medium", required=True,
                        help="path to a JSON medium description")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    count = _at_least(0)
    positive = _real(lambda v: v > 0, "finite and positive")
    flags = {
        "--seed": {"type": count, "default": 0},
        "--fan-n": {"type": count, "default": 32},
        "--tau": {"type": _real(lambda v: v != 0, "finite and nonzero"),
                  "default": 1.0},
        "--delta": {"type": positive},
        "--tol": {"type": positive},
        "--tmax": {"type": positive},
        "--depth": {"type": count, "default": 0},
        "--csv": {},
        "--mode": {"choices": ("S", "P"), "default": "S"},
        "--points": {"type": count, "default": 4},
        "--starts": {"type": count, "default": 16},
        "--probes": {"type": count, "default": 10},
        "--samples": {"type": _at_least(1), "default": 2000},
        # check_class_membership needs 5 grid points a side
        "--grid": {"type": _at_least(5), "default": 21},
    }
    fan = "--seed --fan-n --delta "
    # an empty fan or probe set leaves these reports nothing to check
    nonempty = {"type": _at_least(1)}
    # (name, help, the flags its handler reads, per-command spec changes)
    commands = [
        ("validate", "check class membership on a grid", "--grid", {}),
        ("classify", "region labels over a covector fan", fan + "--csv", {}),
        # roots builds its structured rows from the fan's first covector
        ("roots", "characteristic roots and Lopatinski margin",
         fan + "--csv --samples",
         {"--fan-n": nonempty, "--samples": {"default": 20000}}),
        ("dn", "DN principal symbol, dual-route checked", fan + "--tol",
         {"--fan-n": nonempty}),
        ("frame", "polarization frame, projectors, muting", fan + "--tol",
         {"--fan-n": nonempty}),
        ("trace", "trace one leg (or broken transport with --depth)",
         "--seed --tau --depth --tmax --mode --csv", {}),
        ("lensmap", "lens map table over a probe fan",
         "--seed --fan-n --tau --csv", {}),
        ("distance", "boundary distance matrix",
         "--seed --tau --points --starts", {}),
        ("recover", "lens-map recovery from single-mode event streams",
         "--seed --tau --depth --tol --probes",
         {"--depth": {"default": 1}, "--probes": nonempty}),
        ("selftest", "condensed invariant suite on this medium",
         "--seed --samples", {}),
    ]
    # read by no handler; perfbench's recorded reports pin them in params
    unread = {"trace": " --fan-n", "lensmap": " --depth",
              "distance": " --depth --fan-n", "recover": " --fan-n"}
    for name, help_text, names, changes in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in (names + unread.get(name, "")).split():
            p.add_argument(flag, **{**flags[flag], **changes.get(flag, {})})
    return parser


HANDLERS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "roots": cmd_roots,
    "dn": cmd_dn,
    "frame": cmd_frame,
    "trace": cmd_trace,
    "lensmap": cmd_lensmap,
    "distance": cmd_distance,
    "recover": cmd_recover,
    "selftest": cmd_selftest,
}


# built once per process: parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        m = load_medium(args.medium)
    except (OSError, ElastorayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        results, failures = HANDLERS[args.command](m, args)
    except ElastorayError as exc:
        results = {}
        failures = [f"{type(exc).__name__}: {exc}"]

    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("medium", "out", "command") and v is not None}
    report = {
        "command": args.command,
        "medium_digest": medium_digest(m),
        "params": _jsonable(params),
        "results": _jsonable(results),
        "failures": failures,
    }
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
