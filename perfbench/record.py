#!/usr/bin/env python3
"""Record the reference outcomes the benchmark checks every run against.

    python3 perfbench/record.py [workload ...]

Runs every input of each workload's pool once and writes the outcomes to
``perfbench/reference/<workload>.json.gz``.  Re-record only when a change is
meant to alter results beyond the benchmark's tolerances; a faster program
that keeps its results must pass against the existing references.  CLI pool
items whose report has a nonzero exit code are left out of the pool, so that
no operation of a workload fails on the commit that recorded it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    # run as a script: make the package and the benchmark importable
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

import elastoray as er  # noqa: E402
import elastoray.cli  # noqa: E402,F401  (in-process CLI calls)

from perfbench import workloads as w  # noqa: E402
from perfbench.outcomes import kappa_for_margin, margin_of  # noqa: E402


def record_outcomes(wl, reference, keep=None):
    """Run every pool task of ``wl``; returns the keys that were kept."""
    kept = []
    for key, _, fn in wl.pool_tasks():
        result = fn()
        outs = {op: wl.outcome(op, raw) for op, raw in result.items()}
        if keep is not None and not keep(result):
            print(f"  {key}: left out of the pool", flush=True)
            continue
        reference["outcomes"][key] = json.dumps(outs, sort_keys=True)
        label = result.get("classify")
        if label is not None and not isinstance(label, Exception):
            reference["kappa"][key] = kappa_for_margin(margin_of(label))
        kept.append(key)
    return kept


def _clean_exit(result):
    raw = result["cli"]
    return not isinstance(raw, Exception) and raw[0] == 0


def main(names):
    media = {n: er.load_medium(w.medium_path(n)) for n in w.ALL_MEDIA}
    for name in names or list(w.WORKLOADS):
        t0 = time.perf_counter()
        ref = {"outcomes": {}, "kappa": {}}
        cls = w.WORKLOADS[name]
        if name == "symbol_fan":
            ref["inputs"] = w.symbol_pool(er, media)
            record_outcomes(cls(er, ref), ref)
        elif name == "lens_fan":
            ref["inputs"] = {"seeds": {}}
            kept = record_outcomes(cls(er, ref), ref, _clean_exit)
            seeds = ref["inputs"]["seeds"]
            for key in kept:
                medium, cmd, seed = key.split("/")
                seeds.setdefault(medium, {}).setdefault(cmd, []).append(
                    int(seed))
        else:
            ref["inputs"] = {"cold_seeds": [], "warm_pairs": w.warm_pairs(
                er, media[w.WARM_MEDIUM], w.WARM_POOL)}
            wl = cls(er, ref)
            kept = record_outcomes(
                wl, ref, lambda r: "cli" not in r or _clean_exit(r))
            ref["inputs"]["cold_seeds"] = [int(k.split("/")[-1]) for k in kept
                                           if not k.startswith("warm/")]
        w.save_reference(name, ref)
        print(f"{name}: {len(ref['outcomes'])} pool items recorded in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
