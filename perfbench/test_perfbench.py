"""Checks of the benchmark itself: wrapping, traced outputs, metric lists.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import elastoray as er  # noqa: E402
import elastoray.cli  # noqa: E402,F401

from perfbench import outcomes as oc  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.trace import (Tracer, elastoray_modules,  # noqa: E402
                             public_functions)

# copies imported by name that a module-level patch alone would miss
NAMED_COPIES = [
    ("rays", "char_roots"), ("polarization", "char_roots"),
    ("rays", "boundary_covector"), ("rays", "muting_annihilation_check"),
    ("boundary", "traction_symbol"), ("polarization", "traction_symbol"),
    ("boundary", "check_class_membership"), ("cli", "check_class_membership"),
]


@pytest.fixture()
def tracer():
    t = Tracer()
    t.install({layer: getattr(er, layer) for layer in run.SPANS})
    yield t
    t.disable()


def _originals():
    fns = [getattr(fn, "__perfbench_original__", fn) for layer in run.SPANS
           for fn in public_functions(getattr(er, layer)).values()]
    return {id(fn): fn for fn in fns}


def _unwrapped_references(originals):
    found = []
    for mod in elastoray_modules():
        for key, value in vars(mod).items():
            values = [value]
            if isinstance(value, dict):
                values = list(value.values())
            elif isinstance(value, (list, tuple)):
                values = list(value)
            for v in values:
                if id(v) in originals and originals[id(v)] is v:
                    found.append(f"{mod.__name__}.{key}")
    return found


def test_no_module_keeps_an_unwrapped_reference(tracer):
    originals = _originals()
    assert _unwrapped_references(originals) == []
    for mod, name in NAMED_COPIES:
        fn = getattr(getattr(er, mod), name)
        assert hasattr(fn, "__perfbench_original__"), f"{mod}.{name}"
    assert all(hasattr(fn, "__perfbench_original__")
               for fn in er.cli.HANDLERS.values())
    tracer.disable()
    assert _unwrapped_references(originals) != []
    assert er.rays.char_roots is er.boundary.char_roots
    assert not hasattr(er.rays.char_roots, "__perfbench_original__")


def _symbol_outcomes(wl, m, fan):
    outs = []
    for g in fan:
        result = workloads.symbol_chain(er, m, g)
        outs.append({op: wl.outcome(op, raw) for op, raw in result.items()})
    return outs


def test_traced_outputs_equal_untraced(tracer):
    tracer.disable()
    ref = {"outcomes": {}, "kappa": {}}
    ref["inputs"] = workloads.symbol_pool(
        er, {n: er.load_medium(workloads.medium_path(n))
             for n in workloads.ALL_MEDIA})
    wl = workloads.SymbolFan(er, ref)
    argv = ["--medium", str(workloads.medium_path("potential_stress")),
            "trace", "--depth", "2", "--seed", "3"]
    runs = []
    for traced in (False, True):
        if traced:
            tracer.enable()
            for m in wl.m.values():
                tracer.instrument_medium(m)
        runs.append((
            [_symbol_outcomes(wl, wl.m[n], wl.fans[n][:6])
             for n in workloads.ALL_MEDIA],
            workloads.cli_report(er, argv)))
        tracer.disable()
    assert runs[0] == runs[1]
    snap = tracer.snapshot()
    assert snap["calls"]["boundary.dn_symbol"] == 24
    assert snap["calls"]["cli.main"] == 1
    assert snap["calls"]["medium.field_eval"] > 0
    assert snap["counts"]["rays.legs"] > 0


def test_compare_uses_certified_tolerances():
    ref = oc.value({"dn": np.eye(3) @ np.ones(3), "n_steps": 7,
                    "rel_residual": 1e-15, "labels": ["hyperbolic", True]})
    same = oc.value({"dn": np.ones(3) * (1 + 1e-12), "n_steps": 9,
                     "rel_residual": 3e-14, "labels": ["hyperbolic", True]})
    assert oc.compare(ref, same) == []
    moved = oc.value({"dn": np.ones(3) * (1 + 1e-8), "n_steps": 7,
                      "rel_residual": 1e-15, "labels": ["hyperbolic", True]})
    assert len(oc.compare(ref, moved)) == 1
    assert oc.compare(ref, moved, kappa=1e3) == []
    assert oc.compare(oc.raised(er.GlancingError("g")), ref) != []
    assert oc.compare(ref, {"value": {**ref["value"], "extra": 1}}) == []


def test_transport_events_match_in_any_order():
    def event(t, mode):
        return {"gamma": {"t": t, "x": [0.0, 0.0, 1.0]}, "mode": mode,
                "order_index": 0}
    ref = {"events": [event(1.0, "S"), event(1.0 + 1e-12, "P")]}
    assert oc.compare(ref, {"events": ref["events"][::-1]}) == []
    assert oc.compare(ref, {"events": [event(1.0, "S"), event(1.0, "S")]})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
