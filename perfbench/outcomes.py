"""Operation outcomes and their comparison with recorded references.

An outcome is either ``{"raised": "<ExceptionClass>"}`` or ``{"value": ...}``
where the value is a JSON tree.  Numbers are compared with the tolerances the
acceptance gate and ``elastoray.cli.DEFAULT_TOL`` certify, never by bytes, so
that a legitimate change to the integrator or the root kernel is not a
failure.  Which tolerance applies is decided by the leaf's key:

* ``("rel", tol)``: ``|got - ref| <= tol * kappa * max(1, |ref|)``, arrays by
  their Euclidean norm;
* ``("le", limit)``: a residual; passes when ``got <= max(limit * kappa,
  10 * ref)``, the reference value itself being only a residual;
* ``None``: a work count such as ``n_steps`` that a faster method may
  legitimately change; not compared;
* ``"unordered"``: a list compared as a multiset, each reference item
  matched to a distinct item of the run's list.  Transport events are sorted
  by arrival time, and on the radially symmetric bump medium converted
  branches (S then P, P then S) arrive at the same time, so their order is
  decided by round-off;
* any other key is compared exactly.

``kappa`` widens value tolerances at ill-conditioned inputs, where a last-bit
change of the program moves the result by more than the certified tolerance:
near glancing (a small discriminant margin makes the roots ill-conditioned)
and for badly conditioned polarization bases.  It is at least 1 and is
computed from the reference, not from the run being checked.
"""

from __future__ import annotations

import math

import numpy as np

SYMBOL = 1e-10      # DEFAULT_TOL symbol / dn / frame and criteria 01, 03, 05
RESIDUE = 1e-8      # DEFAULT_TOL residue, criterion 02
TRANSPORT = 1e-6    # DEFAULT_TOL recover, criterion 09: lens-map agreement
DRIFT = 1e-9        # DEFAULT_TOL drift, criterion 07
MISS = 1e-9         # boundary_distance miss_tol
GRADIENT = 1e-3     # criterion 08: generating-function identity

RULES = {
    # API: boundary and polarization layers
    "discriminants": ("rel", SYMBOL),
    "roots": ("rel", SYMBOL),
    "normalized_product": ("rel", SYMBOL),
    "a0": ("rel", RESIDUE), "a1": ("rel", RESIDUE),
    "q0": ("rel", RESIDUE), "q1": ("rel", RESIDUE),
    "dn": ("rel", SYMBOL),
    "rel_residual": ("le", SYMBOL),
    "cond": ("rel", 1e-6),
    "p_projector": ("rel", SYMBOL), "s_projector": ("rel", SYMBOL),
    "mute_residual": ("le", SYMBOL),
    "identity_residual": ("le", 1e-12),
    "eigenvalue_error": ("le", SYMBOL),
    "min_normalized": ("rel", RESIDUE),
    # API and CLI: ray transport
    "distance": ("rel", TRANSPORT),
    "travel_time": ("rel", TRANSPORT),
    "t": ("rel", TRANSPORT), "t_in": ("rel", TRANSPORT),
    "t_out": ("rel", TRANSPORT),
    "x": ("rel", TRANSPORT), "x_in": ("rel", TRANSPORT),
    "x_out": ("rel", TRANSPORT),
    "xi_t": ("rel", TRANSPORT), "xi_t_in": ("rel", TRANSPORT),
    "xi_t_out": ("rel", TRANSPORT),
    "tau": ("rel", TRANSPORT),
    "from": ("rel", TRANSPORT), "to": ("rel", TRANSPORT),
    "min_mode_separation": ("rel", TRANSPORT),
    "max_mode_separation": ("rel", TRANSPORT),
    "max_dx": ("le", TRANSPORT), "max_dxi": ("le", TRANSPORT),
    "max_dt": ("le", TRANSPORT),
    "max_mute_residual": ("le", SYMBOL),
    "drift_max": ("le", DRIFT),
    "miss": ("le", MISS),
    "gradient_error": ("le", GRADIENT),
    # work counts, positions in a time-sorted list, free text with numbers
    "n_steps": None, "n_legs": None, "message": None, "order_index": None,
    "events": "unordered",
}

# probe matrices are compared through their action on fixed generic vectors
_V3 = np.array([0.3 + 0.7j, -1.1 + 0.2j, 0.5 - 0.9j])
_V6 = np.array([0.8 - 0.1j, -0.4 + 0.6j, 0.2 + 0.3j, 1.0 - 0.5j,
                -0.7 - 0.2j, 0.1 + 0.9j])


def jsonable(obj):
    """Nested lists / dicts of floats; complex numbers become [re, im]."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def raised(exc):
    return {"raised": type(exc).__name__}


def value(tree):
    return {"value": jsonable(tree)}


def kappa_for_margin(margin):
    """Tolerance widening from the discriminant margin of a covector."""
    return max(1.0, 1e-4 / max(margin, 1e-300))


def _flat(x):
    return np.asarray(x, dtype=float).ravel()


def _close(ref, got, rule, kappa):
    kind, tol = rule
    ref_a, got_a = _flat(ref), _flat(got)
    if ref_a.shape != got_a.shape or not np.all(np.isfinite(got_a)):
        return False
    if kind == "le":
        return bool(np.all(got_a <= np.maximum(tol * kappa, 10.0 * ref_a)))
    err = float(np.linalg.norm(got_a - ref_a))
    return err <= tol * kappa * max(1.0, float(np.linalg.norm(ref_a)))


def compare(ref, got, kappa=1.0, path="", key=None):
    """List of mismatch descriptions between two outcome trees (empty: ok).

    Only keys present in the reference are compared, so a report that gains
    a key (say, a counters block) still matches.
    """
    rule = RULES.get(key, "exact")
    if rule is None:
        return []
    if rule == "unordered":
        return _compare_unordered(ref, got, kappa, path)
    if rule != "exact":
        if ref is None or got is None:
            return [] if ref is None and got is None else [f"{path}: {got!r}"]
        if _close(ref, got, rule, kappa):
            return []
        return [f"{path}: {_short(got)} vs reference {_short(ref)} "
                f"({rule[0]} {rule[1]:.0e} x {kappa:.3g})"]
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in ref.items():
            if k not in got:
                out.append(f"{path}.{k}: missing")
            else:
                out += compare(v, got[k], kappa, f"{path}.{k}", k)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return _length_mismatch(ref, got, path)
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, kappa, f"{path}[{i}]", key)
        return out
    if isinstance(ref, float) and isinstance(got, float) and \
            math.isnan(ref) and math.isnan(got):
        return []
    return [] if ref == got else [f"{path}: {got!r} vs reference {ref!r}"]


def _length_mismatch(ref, got, path):
    n = len(got) if isinstance(got, list) else "-"
    return [f"{path}: length {n} vs reference {len(ref)}"]


def _compare_unordered(ref, got, kappa, path):
    if not isinstance(got, list) or len(got) != len(ref):
        return _length_mismatch(ref, got, path)
    unused = list(range(len(got)))
    out = []
    for i, r in enumerate(ref):
        match = next((j for j in unused
                      if not compare(r, got[j], kappa, f"{path}[{j}]")), None)
        if match is None:
            out.append(f"{path}[{i}]: no matching item in the run")
        else:
            unused.remove(match)
    return out


def _short(x):
    text = repr(x)
    return text if len(text) <= 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# fingerprints of API results
# ---------------------------------------------------------------------------

def classify_value(label):
    return {"labels": [label.s_label, label.p_label, label.combined,
                       label.in_gamma_delta],
            "discriminants": [label.s_discriminant, label.p_discriminant]}


def margin_of(label):
    """Discriminant margin, as boundary.discriminant_margin computes it."""
    return min(abs(label.s_discriminant) / label.s_scale2,
               abs(label.p_discriminant) / label.p_scale2)


def roots_value(roots):
    return {"real": [roots.s.real, roots.p.real],
            "roots": [roots.s.z_forward, roots.s.z_backward,
                      roots.p.z_forward, roots.p.z_backward],
            "normalized_product": roots.normalized_product}


def residue_value(data):
    return {"a0": data.a0 @ _V3, "a1": data.a1 @ _V3}


def quadrature_value(quad):
    return {"q0": quad.a0 @ _V3, "q1": quad.a1 @ _V3}


def dn_value(dn):
    return {"dn": dn.matrix @ _V3, "rel_residual": dn.rel_residual}


def frame_value(frame):
    return {"kind": frame.kind,
            "ranks": {tag: int(b.shape[1]) for tag, b in frame.bases.items()},
            "cond": frame.cond,
            "p_projector": frame.p_projector @ _V6,
            "s_projector": frame.s_projector @ _V6}


def frame_kappa(ref_value):
    """Extra widening for projectors built from an ill-conditioned basis."""
    return max(1.0, ref_value["cond"] / 100.0)


def companion_value(rep):
    return {"identity_residual": rep.identity_residual,
            "eigenvalue_error": rep.eigenvalue_error,
            "kernel_ok": rep.kernel_ok, "kernel_dims": rep.kernel_dims}


def lopatinski_value(rep):
    return {"min_normalized": rep.min_normalized, "n_used": rep.n_used,
            "n_glancing_skipped": rep.n_glancing_skipped,
            "region_counts": rep.region_counts, "admissible": rep.admissible}


def distance_value(res):
    return {"connected": res.connected,
            "distance": res.distance if res.connected else None,
            "miss": res.miss if math.isfinite(res.miss) else None}
