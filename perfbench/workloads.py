"""The three workloads: their input pools, passes and operations.

Every workload draws its inputs from a fixed pool whose outcomes were
recorded once (``record.py``); the run's ``--seed`` chooses which pool items
each pass uses and in what order, so the same seed gives the same inputs and
every input has a reference outcome to be checked against.

A task is one unit of work in a pass.  Running it returns a dict from
operation name to the raw result or to the exception the operation raised;
each entry is one attempted operation.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import outcomes as oc

ROOT = Path(__file__).resolve().parents[1]
MEDIA_DIR = ROOT / "media"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ALL_MEDIA = ("constant", "constant_stress", "potential_stress",
             "gaussian_bump")

# symbol_fan: covectors per medium per pass, drawn from a recorded pool
SYMBOL_POOL = 256
SYMBOL_PER_PASS = 16
LOPATINSKI_POOL = 64
LOPATINSKI_SAMPLES = 20000      # the `roots` subcommand's default scan size

# lens_fan: one report of each command per medium per pass
LENS_POOL = 24
LENS_COMMANDS = {
    "lensmap": ["lensmap", "--fan-n", "4"],
    "recover": ["recover", "--probes", "2"],
    "trace": ["trace", "--depth", "3"],
}

# distance_solve: one cold report plus one warm-started pair per pass; the
# pools are about one run long, so every run solves nearly the same pairs
COLD_MEDIUM = "constant_stress"
COLD_POOL = 8
COLD_ARGS = ["distance", "--points", "2"]
WARM_MEDIUM = "gaussian_bump"
WARM_POOL = 8
WARM_H = 1e-4                   # criterion 08's finite-difference step


def medium_path(name):
    return MEDIA_DIR / f"{name}.json"


def _attempt(out, name, fn):
    # the benchmark must keep running to count an unexpected exception as a
    # failed operation, so every exception is caught here and recorded
    try:
        out[name] = fn()
    except Exception as exc:  # noqa: BLE001
        # the traceback would keep the pass's frames alive in a cycle
        out[name] = exc.with_traceback(None)
    return out[name]


def _single(name, fn):
    out = {}
    _attempt(out, name, fn)
    return out


def cli_report(er, argv):
    """Run ``elastoray.cli.main`` in-process; (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = er.cli.main(argv)
    return code, buf.getvalue()


def cli_outcome(raw):
    code, text = raw
    return oc.value({"exit": code, "report": json.loads(text)})


# ---------------------------------------------------------------------------
# symbol_fan
# ---------------------------------------------------------------------------

SYMBOL_EXTRACT = {
    "classify": oc.classify_value,
    "char_roots": oc.roots_value,
    "residue_matrices": oc.residue_value,
    "residue_quadrature": oc.quadrature_value,
    "dn_symbol": oc.dn_value,
    "polarization_frame": oc.frame_value,
    "muting_annihilation_check": lambda v: {"mute_residual": v},
    "companion_symbol_check": oc.companion_value,
    "lopatinski_margin": oc.lopatinski_value,
}


def symbol_chain(er, m, g):
    """One covector through the public boundary and polarization API."""
    out = {}
    _attempt(out, "classify", lambda: er.classify(m, g))
    _attempt(out, "char_roots", lambda: er.char_roots(m, g))
    _attempt(out, "residue_matrices", lambda: er.residue_matrices(m, g))
    _attempt(out, "residue_quadrature", lambda: er.residue_quadrature(m, g))
    _attempt(out, "dn_symbol", lambda: er.dn_symbol(m, g))
    frame = _attempt(out, "polarization_frame",
                     lambda: er.polarization_frame(m, g))
    if not isinstance(frame, Exception):
        _attempt(out, "muting_annihilation_check",
                 lambda: er.muting_annihilation_check(m, g, frame))
    _attempt(out, "companion_symbol_check",
             lambda: er.companion_symbol_check(m, g))
    return out


def symbol_pool(er, media):
    """Seeded covector pool per medium, as the CLI's fans are sampled."""
    pool = {}
    for i, name in enumerate(ALL_MEDIA):
        m = media[name]
        rng = np.random.default_rng(1000 + i)
        x, nu, xi_t, tau = er.sample_boundary_covectors(
            m, SYMBOL_POOL, rng, m.class_params.delta)
        pool[name] = {"x": x.tolist(), "nu": nu.tolist(),
                      "xi_t": xi_t.tolist(), "tau": tau.tolist()}
    return pool


def covectors(er, spec):
    return [er.BoundaryCovector(t=0.0, x=np.array(spec["x"][i]),
                                tau=spec["tau"][i],
                                xi_t=np.array(spec["xi_t"][i]),
                                nu=np.array(spec["nu"][i]))
            for i in range(len(spec["tau"]))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs and operations of one workload."""

    name = ""
    media = ()          # media files the workload reads, for setup_s
    api_media = ()      # media it loads once and calls through the API
    extract = {}        # operation name -> fingerprint of its raw result

    def __init__(self, er, reference):
        self.er = er
        self.ref = reference
        self.m = {name: er.load_medium(medium_path(name))
                  for name in self.api_media}
        self._queues = {}

    def draw(self, rng, pool_name, items):
        """Next pool item: seeded draws without replacement, reshuffled when
        the pool is spent, so the passes of one run cover the pool evenly and
        runs on different seeds do comparable work."""
        queue = self._queues.setdefault(pool_name, [])
        if not queue:
            queue.extend(int(i) for i in rng.permutation(items))
        return queue.pop()

    def outcome(self, op, raw):
        if isinstance(raw, Exception):
            return oc.raised(raw)
        if op == "cli":
            return cli_outcome(raw)
        return oc.value(self.extract[op](raw))

    def expected(self, key):
        """Recorded outcomes of one task, {op: outcome}, or None.

        They are kept as JSON text and decoded on use, so the reference adds
        little to the run's peak memory.
        """
        text = self.ref["outcomes"].get(key)
        return None if text is None else json.loads(text)

    def kappa(self, key, op):
        return self.ref["kappa"].get(key, 1.0)

    def cli_task(self, name, args, seed):
        argv = ["--medium", str(medium_path(name))] + args + ["--seed",
                                                              str(seed)]
        key = "/".join([name, args[0], str(seed)])
        return key, argv, lambda: _single("cli",
                                          lambda: cli_report(self.er, argv))


class SymbolFan(Workload):
    name = "symbol_fan"
    media = ALL_MEDIA
    api_media = ALL_MEDIA
    extract = SYMBOL_EXTRACT

    def __init__(self, er, reference):
        super().__init__(er, reference)
        self.fans = {name: covectors(er, reference["inputs"][name])
                     for name in self.media}

    def kappa(self, key, op):
        k = self.ref["kappa"].get(key, 1.0)
        if op in ("polarization_frame", "muting_annihilation_check"):
            frame = self.expected(key)["polarization_frame"]
            if "value" in frame:
                k *= oc.frame_kappa(frame["value"])
        return k

    def tasks(self, rng):
        out = []
        for name in self.media:
            m = self.m[name]
            for _ in range(SYMBOL_PER_PASS):
                i = self.draw(rng, name, SYMBOL_POOL)
                g = self.fans[name][i]
                out.append((f"{name}/{i}", None,
                            lambda m=m, g=g: symbol_chain(self.er, m, g)))
            seed = self.draw(rng, name + "/lopatinski", LOPATINSKI_POOL)
            out.append(self.lopatinski_task(name, seed))
        return out

    def lopatinski_task(self, name, seed):
        m = self.m[name]
        return (f"{name}/lopatinski/{seed}", None, lambda: _single(
            "lopatinski_margin", lambda: self.er.lopatinski_margin(
                m, sample_count=LOPATINSKI_SAMPLES, seed=seed)))

    def pool_tasks(self):
        for name in self.media:
            for i, g in enumerate(self.fans[name]):
                yield (f"{name}/{i}", None,
                       lambda m=self.m[name], g=g: symbol_chain(self.er, m, g))
            for seed in range(LOPATINSKI_POOL):
                yield self.lopatinski_task(name, seed)


class LensFan(Workload):
    name = "lens_fan"
    media = ALL_MEDIA

    def tasks(self, rng):
        seeds = self.ref["inputs"]["seeds"]
        return [self.cli_task(name, args, self.draw(rng, f"{name}/{cmd}",
                                                    seeds[name][cmd]))
                for name in self.media
                for cmd, args in LENS_COMMANDS.items()]

    def pool_tasks(self):
        for name in self.media:
            for args in LENS_COMMANDS.values():
                for seed in range(LENS_POOL):
                    yield self.cli_task(name, args, seed)


class DistanceSolve(Workload):
    name = "distance_solve"
    media = (COLD_MEDIUM, WARM_MEDIUM)
    api_media = (WARM_MEDIUM,)
    extract = {"plus_0": oc.distance_value, "minus_0": oc.distance_value,
               "plus_1": oc.distance_value, "minus_1": oc.distance_value,
               "generating_function": lambda v: {"gradient_error": v}}

    def warm_task(self, i, pair):
        m = self.m[WARM_MEDIUM]
        x0 = np.array(pair["x0"])
        w0 = np.array(pair["w0"])
        want = np.array(pair["want"])
        targets = [np.array(t) for t in pair["targets"]]

        def run():
            # criterion 08: central differences of warm-started solves
            out = {}
            dist = []
            for k in range(2):
                for j, sign in enumerate(("plus", "minus")):
                    res = _attempt(out, f"{sign}_{k}",
                                   lambda t=targets[2 * k + j]:
                                   self.er.boundary_distance(
                                       m, "S", x0, t, warm_start=w0))
                    ok = not isinstance(res, Exception) and res.connected
                    dist.append(res.distance if ok else None)
            if None not in dist:
                grad = (np.array(dist[0::2]) - np.array(dist[1::2])) \
                    / (2.0 * WARM_H)
                out["generating_function"] = float(
                    np.linalg.norm(grad - want) / np.linalg.norm(want))
            return out

        return f"warm/{i}", None, run

    def tasks(self, rng):
        inputs = self.ref["inputs"]
        seed = self.draw(rng, "cold", inputs["cold_seeds"])
        i = self.draw(rng, "warm", len(inputs["warm_pairs"]))
        return [self.cli_task(COLD_MEDIUM, COLD_ARGS, seed),
                self.warm_task(i, inputs["warm_pairs"][i])]

    def pool_tasks(self):
        for seed in range(COLD_POOL):
            yield self.cli_task(COLD_MEDIUM, COLD_ARGS, seed)
        for i, pair in enumerate(self.ref["inputs"]["warm_pairs"]):
            yield self.warm_task(i, pair)


WORKLOADS = {w.name: w for w in (SymbolFan, LensFan, DistanceSolve)}


def warm_pairs(er, m, count):
    """Boundary point pairs with a warm start, in the pattern of criterion 08.

    Pairs whose cold solve does not connect are skipped, as criterion 08
    skips them: they have no entry covector to warm-start from.
    """
    rng = np.random.default_rng(808)
    pairs = []
    while len(pairs) < count:
        x0 = m.domain.sample_boundary(1, rng)[0]
        y = m.domain.sample_boundary(1, rng)[0]
        gap = np.linalg.norm(y - x0)
        if gap < 0.6 or gap > 1.8:
            continue
        base = er.boundary_distance(m, "S", x0, y, n_starts=10, n_refine=1)
        if not base.connected:
            continue
        e1, e2 = m.domain.tangent_basis(x0)
        w0 = [float(base.gamma_in.xi_t @ e1), float(base.gamma_in.xi_t @ e2)]
        tvs = m.domain.tangent_basis(y)
        targets = [m.domain.radial_project(y + s * WARM_H * tv).tolist()
                   for tv in tvs for s in (1.0, -1.0)]
        want = [float(-(base.gamma_out.xi_t @ tv) / base.gamma_out.tau)
                for tv in tvs]
        pairs.append({"x0": x0.tolist(), "y": y.tolist(), "w0": w0,
                      "targets": targets, "want": want})
    return pairs


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json.gz"


def load_reference(name):
    with gzip.open(reference_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(name, reference):
    REFERENCE_DIR.mkdir(exist_ok=True)
    with gzip.GzipFile(reference_path(name), "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True,
                            separators=(",", ":")).encode())
