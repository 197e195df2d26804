#!/usr/bin/env python3
"""elastoray benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload symbol_fan --seed 1 --seconds 35 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run times whole passes of the workload and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics (see README.md).  Every operation is
checked against the recorded reference outcomes.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record, with the environment, is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if __package__ in (None, ""):
    # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import outcomes as oc  # noqa: E402
from perfbench import workloads as wls  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 20

SPANS = {
    "medium": ("check_class_membership", "load_medium"),
    "symbols": ("traction_symbol", "principal_symbol_matrix",
                "metric_bilinear"),
    "boundary": ("char_roots", "classify", "residue_matrices",
                 "residue_quadrature", "dn_symbol", "companion_symbol_check",
                 "lopatinski_margin"),
    "polarization": ("polarization_frame", "muting_annihilation_check"),
    "rays": ("trace_state", "trace_leg", "probe_fan", "reflect",
             "broken_transport", "recover_lens_maps", "boundary_distance"),
    "cli": ("main",),
}
ERRORS = {
    "boundary.errors": ("GlancingError", "ContourError",
                        "SingularResidueError"),
    "polarization.errors": ("GlancingError", "FrameConditionError"),
    "rays.trace_leg.errors": ("EvanescentModeError", "GlancingError",
                              "GlancingExitError", "MaxStepsError",
                              "StepControlError"),
}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("medium.field_eval.calls", "count", "lower"),
           ("medium.field_eval.self_s", "s", "lower")]
    for layer, names in SPANS.items():
        for fname in names:
            out.append((f"{layer}.{fname}.calls", "count", "lower"))
            out.append((f"{layer}.{fname}.self_s", "s", "lower"))
    for prefix, classes in ERRORS.items():
        out += [(f"{prefix}.{cls}", "count", "lower") for cls in classes]
    out += [("rays.legs", "count", "lower"),
            ("rays.steps", "count", "lower"),
            ("rays.steps_per_leg", "count", "lower"),
            ("rays.legs_per_solve", "count", "lower"),
            ("rays.legs_per_cold_solve", "count", "lower"),
            ("rays.legs_per_warm_solve", "count", "lower"),
            ("rays.leg_ok_ratio", "ratio", "higher"),
            ("rays.solve_connected_ratio", "ratio", "higher"),
            ("tracing_overhead_s", "s", "lower")]
    return out


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(snap, n_passes, overhead_s):
    """Per-layer metric values, per traced pass, from a tracer snapshot."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    vals = {}
    for name, unit, _ in per_layer_metrics():
        if name.endswith(".calls"):
            vals[name] = calls.get(name[:-6], 0) / n_passes
        elif name.endswith(".self_s"):
            vals[name] = self_s.get(name[:-7], 0.0) / n_passes
        elif ".errors." in name:
            vals[name] = counts.get(name, 0) / n_passes
    legs, steps = counts.get("rays.legs", 0), counts.get("rays.steps", 0)
    cold_n, warm_n = counts.get("rays.cold_solves", 0), \
        counts.get("rays.warm_solves", 0)
    cold_l, warm_l = counts.get("rays.cold_solve_legs", 0), \
        counts.get("rays.warm_solve_legs", 0)
    vals.update({
        "rays.legs": legs / n_passes,
        "rays.steps": steps / n_passes,
        "rays.steps_per_leg": _ratio(steps, legs),
        "rays.legs_per_solve": _ratio(cold_l + warm_l, cold_n + warm_n),
        "rays.legs_per_cold_solve": _ratio(cold_l, cold_n),
        "rays.legs_per_warm_solve": _ratio(warm_l, warm_n),
        "rays.leg_ok_ratio": _ratio(
            counts.get("rays.solve_legs_ok", 0),
            counts.get("rays.solve_legs_attempted", 0)),
        "rays.solve_connected_ratio": _ratio(
            counts.get("rays.solves_connected", 0), cold_n + warm_n),
        "tracing_overhead_s": overhead_s,
    })
    return vals


# ---------------------------------------------------------------------------
# environment and set-up time
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "elastoray").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(elastoray_threads):
    import scipy
    blas = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas["numpy_blas"] = deps["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        blas["numpy_blas"] = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": blas,
        "ELASTORAY_THREADS": elastoray_threads,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def setup_times(media_paths, env):
    """Fresh-interpreter time to `import elastoray` and load the media."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import elastoray\n"
            f"for p in {[str(p) for p in media_paths]!r}:\n"
            "    elastoray.load_medium(p)\n"
            "print(time.monotonic())\n")
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

class Checker:
    """Compares every operation's outcome with the recorded reference."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def fail(self, msg):
        self.failures.append(msg)

    def check(self, key, argv, result):
        ref_ops = self.wl.expected(key)
        if ref_ops is None:
            for op in result:
                self.attempted += 1
                self.fail(f"{key}/{op}: no reference outcome")
            return
        for op in ref_ops:
            if op not in result:
                self.attempted += 1
                self.fail(f"{key}/{op}: expected outcome missing")
        for op, raw in result.items():
            self.attempted += 1
            ref = ref_ops.get(op)
            got = self.wl.outcome(op, raw)
            if ref is None:
                self.fail(f"{key}/{op}: operation not in the reference")
                continue
            bad = oc.compare(ref, got, self.wl.kappa(key, op), f"{key}/{op}")
            if op == "cli" and not isinstance(raw, Exception):
                code, text = raw
                if code != 0:
                    bad.append(f"{key}: exit code {code}")
                d = wls.digest(text)
                if self.digests.setdefault(tuple(argv), d) != d:
                    bad.append(f"{key}: report bytes differ between calls")
            if bad:
                self.fail("; ".join(bad[:3]))


def run_pass(tasks):
    """Run the tasks of one pass: [(key, argv, result, seconds)]."""
    out = []
    for key, argv, fn in tasks:
        t0 = time.perf_counter()
        result = fn()
        out.append((key, argv, result, time.perf_counter() - t0))
    return out


def measure(wl, rng, seconds, tracer, checker):
    """Warm-up pass, then passes until the window closes.

    Returns [(traced, seconds)] of the timed passes.

    The window also holds the closing determinism check, a second call of
    the run's first CLI report, which must give the same bytes.
    """
    t_start = time.perf_counter()
    passes = []
    first_cli = None
    reserve = 0.0
    min_passes = 4 if tracer is not None else 3
    while True:
        elapsed = time.perf_counter() - t_start
        last = passes[-1][1] if passes else 0.0
        if len(passes) >= min_passes and elapsed + last + reserve > seconds:
            break
        tasks = wl.tasks(rng)
        traced = tracer is not None and len(passes) > 0 \
            and len(passes) % 2 == 0
        if traced:
            tracer.enable()
        t0 = time.perf_counter()
        results = run_pass(tasks)
        dt = time.perf_counter() - t0
        if traced:
            tracer.disable()
        for (key, argv, result, task_s), task in zip(results, tasks):
            checker.check(key, argv, result)
            if first_cli is None and argv is not None:
                first_cli, reserve = task, task_s
        passes.append((traced, dt))
    if first_cli is not None:
        key, argv, fn = first_cli
        checker.check(key, argv, fn())
    return passes[1:]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # every workload runs single-process with the package's own default
    elastoray_threads = os.environ.pop("ELASTORAY_THREADS", None)
    if not (SRC / "elastoray" / "__init__.py").is_file():
        print(f"error: no elastoray sources under {SRC}", file=sys.stderr)
        return 2
    cls = wls.WORKLOADS[args.workload]
    missing = [p for p in map(wls.medium_path, cls.media) if not p.is_file()]
    if missing:
        print(f"error: missing media files {missing}", file=sys.stderr)
        return 2
    try:
        reference = wls.load_reference(cls.name)
    except OSError as exc:
        print(f"error: cannot read the reference outcomes: {exc}",
              file=sys.stderr)
        return 2

    setup = None
    if not args.trace:
        setup = setup_times([wls.medium_path(n) for n in cls.media],
                            dict(os.environ))

    sys.path.insert(0, str(SRC))
    import elastoray
    import elastoray.cli  # noqa: F401  (in-process CLI calls)
    if Path(elastoray.__file__).resolve().parent != SRC / "elastoray":
        print(f"error: imported {elastoray.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    wl = cls(elastoray, reference)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({layer: getattr(elastoray, layer) for layer in SPANS})
        for m in wl.m.values():
            tracer.instrument_medium(m)
        tracer.disable()
    checker = Checker(wl)
    passes = measure(wl, np.random.default_rng(args.seed), args.seconds,
                     tracer, checker)

    plain = [dt for traced, dt in passes if not traced]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(elastoray_threads),
              "pass_traced": [p[0] for p in passes],
              "pass_seconds": [p[1] for p in passes],
              "failures": checker.failures[:MAX_REPORTED_FAILURES]}
    if args.trace:
        traced_s = [dt for traced, dt in passes if traced]
        overhead = statistics.median(traced_s) - statistics.median(plain)
        snap = tracer.snapshot()
        values = layer_values(snap, len(traced_s), overhead)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        record["trace_totals"] = snap
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record.update({
            "wall_samples": len(plain),
            "wall_p90_s": percentile(plain, 90),
            "setup_seconds": setup})
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record["metrics"] = metrics

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    for msg in checker.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAIL {msg}", file=sys.stderr)
    n_failed = len(checker.failures)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{checker.attempted} operations, {n_failed} failed; "
          f"record in {out_path.relative_to(ROOT)}")
    if not args.trace:
        print(f"# wall_s median {values['wall_s']:.4f} s over {len(plain)} "
              f"passes, p90 {record['wall_p90_s']:.4f} s; "
              f"fail_frac {n_failed / max(checker.attempted, 1):.3g}")
    print(json.dumps({"correct": n_failed == 0,
                      "attempted": checker.attempted,
                      "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
