"""Command line drivers: report schema, determinism, exit codes."""

import gzip
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elastoray as er
from elastoray import cli, rays

SCHEMA_KEYS = {"command", "medium_digest", "params", "results", "failures"}


def _src_env():
    # the environment of a subprocess that imports elastoray from src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def run(media_dir, tmp_path, sub, *args, medium="constant.json", name="out.json"):
    out = tmp_path / name
    rc = cli.main(["--medium", str(media_dir / medium), "--out", str(out), sub,
                   *args])
    return rc, json.loads(out.read_text()) if out.exists() else None, out


def test_validate_known_good(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "validate")
    assert rc == 0
    assert set(doc) == SCHEMA_KEYS
    assert doc["command"] == "validate"
    assert doc["failures"] == []
    assert doc["results"]["class_report"]["admissible"] is True


def test_validate_inadmissible_medium(tmp_path):
    doc = {
        "domain": {"kind": "ball"},
        "rho": 1.0,
        "lambda": 1.0,
        "mu": 0.2,
        "class_params": {"L": 3.0, "eps": 0.2, "delta": 0.5},
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    rc = cli.main(["--medium", str(path), "--out", str(out), "validate"])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["failures"] != []


def test_missing_medium_is_config_error(tmp_path, capsys):
    rc = cli.main(["--medium", str(tmp_path / "nope.json"), "validate"])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()


def test_corrupt_medium_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["--medium", str(bad), "validate"])
    assert rc == 2
    assert capsys.readouterr().err != ""


GOOD_DOC = {"rho": 1.0, "lambda": 1.0, "mu": 1.0}


@pytest.mark.parametrize("doc", [
    [1, 2], "str", 3, None,
    {**GOOD_DOC, "domain": [1]},
    {**GOOD_DOC, "mu": {"family": "polynomial", "coefficients": [1]}},
    {**GOOD_DOC, "residual_stress": {"kind": "potential", "coefficients": [1]}},
    # negative exponents: a traceback from the monomial table, and a field
    # that loaded but evaluated 1 + 0.1 x instead of 1 + 0.1 / x
    {**GOOD_DOC, "residual_stress": {"kind": "potential",
                                     "coefficients": {"-1,0,0": 0.01}}},
    {**GOOD_DOC, "mu": {"family": "polynomial",
                        "coefficients": {"-1,0,0": 0.1, "0,0,0": 1}}},
], ids=["list", "string", "number", "null", "domain-list",
        "field-coefficients-list", "stress-coefficients-list",
        "stress-negative-exponent", "field-negative-exponent"])
def test_non_object_medium_blocks_are_config_errors(doc, tmp_path):
    # a JSON value of the wrong type anywhere in the medium file is unusable
    # input: exit 2 with a one-line diagnostic, never a traceback
    path = tmp_path / "medium.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "elastoray.cli", "--medium", str(path),
         "--out", str(tmp_path / "out.json"), "validate"],
        env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_scan_without_usable_samples_is_a_failure(media_dir, tmp_path):
    # constant stress -2 I with mu = 1 makes the S form negative everywhere:
    # the medium loads, no Lopatinski scan sample is usable, and roots
    # reports that as a failure (exit 1), never as a traceback
    doc = json.loads((media_dir / "constant_stress.json").read_text())
    doc["residual_stress"]["matrix"] = (-2.0 * np.eye(3)).tolist()
    path, out = tmp_path / "negative_s.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "elastoray.cli", "--medium", str(path),
         "--out", str(out), "roots", "--fan-n", "3", "--samples", "100"],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads(out.read_text())
    assert report["failures"] == [
        "lopatinski: no usable covector samples (all glancing/invalid)"]
    assert report["results"]["lopatinski"] is None


def test_negative_s_form_rows_are_skipped(media_dir, tmp_path):
    # on the same medium no covector has a forward S root: the classify and
    # roots fans skip every row, classify reports that as one failure, and
    # the scalar views and launches raise instead of selecting a root
    doc = json.loads((media_dir / "constant_stress.json").read_text())
    doc["residual_stress"]["matrix"] = (-2.0 * np.eye(3)).tolist()
    path = tmp_path / "negative_s.json"
    path.write_text(json.dumps(doc))
    message = "mode S form B(nu, nu) is not positive at this covector"
    for sub, extra, n_rows in (("classify", [], 3),
                               ("roots", ["--samples", "100"], 5)):
        out = tmp_path / f"{sub}.json"
        rc = cli.main(["--medium", str(path), "--out", str(out), sub,
                       "--fan-n", "3", *extra])
        rows = json.loads(out.read_text())["results"]["rows"]
        assert rc == 1
        assert [row.get("skipped") for row in rows] == [message] * n_rows
    report = json.loads((tmp_path / "roots.json").read_text())
    assert report["failures"] == [
        "lopatinski: no usable covector samples (all glancing/invalid)"]
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["results"]["region_counts"] == {}
    assert report["failures"] == [f"3 of 3 covectors skipped: {message}"]
    m = er.load_medium(path)
    gamma = er.boundary_covector(m, 0.0, [0.0, 0.0, -1.0], 1.0,
                                 [0.3, 0.0, 0.0])
    for view in (er.char_roots, er.classify, er.dn_symbol,
                 lambda m, g: er.launch_state(m, g, "P"),
                 lambda m, g: er.launch_state(m, g, "S", -1)):
        with pytest.raises(er.ElastorayError, match=re.escape(message)):
            view(m, gamma)


@pytest.mark.parametrize("args", [
    ["roots", "--fan-n", "0"], ["classify", "--fan-n", "-1"],
    ["frame", "--fan-n", "-2"], ["distance", "--points", "-1"],
    ["validate", "--grid", "3"], ["roots", "--samples", "0"],
    ["selftest", "--samples", "0"], ["lensmap", "--fan-n", "-1"],
    ["trace", "--depth", "-1"], ["dn", "--seed", "-1"],
    ["distance", "--starts", "-1"], ["recover", "--probes", "-1"],
    ["roots", "--samples", "-1"], ["validate", "--grid", "-1"],
    ["classify", "--fan-n", "three"],
    # an empty probe set or fan leaves nothing to report on
    ["recover", "--probes", "0"], ["dn", "--fan-n", "0"],
    ["frame", "--fan-n", "0"],
], ids=" ".join)
def test_unusable_counts_are_config_errors(args, media_dir, tmp_path):
    # counts are checked in the parser: exit 2 with one error line, no
    # traceback and no report
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "elastoray.cli", "--medium",
         str(media_dir / "constant.json"), "--out", str(out), *args],
        env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert [line for line in proc.stderr.splitlines()
            if "error:" in line] == [proc.stderr.splitlines()[-1]]
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["lensmap", "--tau", "0"], ["trace", "--tau", "0"],
    ["recover", "--tau", "0"], ["lensmap", "--tau", "nan"],
    ["classify", "--delta", "-1"], ["classify", "--delta", "0"],
    ["roots", "--delta", "inf"], ["dn", "--tol", "nan"],
    ["recover", "--tol", "-1"], ["trace", "--tmax", "nan"],
    ["trace", "--tmax", "0"],
    # each subcommand declares only the flags its handler reads
    ["validate", "--seed", "1"], ["selftest", "--tau", "2"],
    ["classify", "--tmax", "1"], ["dn", "--depth", "2"],
    ["lensmap", "--tol", "1e-3"],
], ids=" ".join)
def test_unusable_tau_and_delta_are_config_errors(args, media_dir, tmp_path):
    # tau = 0 leaves no hyperbolic covector to probe with, the cone sampler
    # needs delta > 0, a NaN tolerance would pass every check and a NaN time
    # cap would lift the cap: the parser rejects these and any flag the
    # subcommand does not read, within a time limit that catches a hang
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "elastoray.cli", "--medium",
         str(media_dir / "constant.json"), "--out", str(out), *args],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert [line for line in proc.stderr.splitlines()
            if "error:" in line] == [proc.stderr.splitlines()[-1]]
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [["lensmap", "--fan-n", "0"],
                                  ["distance", "--points", "2",
                                   "--starts", "0"],
                                  ["validate", "--grid", "5"]],
                         ids=" ".join)
def test_smallest_counts_still_run(args, media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, *args)
    assert rc == 0
    assert doc["failures"] == []


def test_classify_report_and_csv(media_dir, tmp_path):
    csv_path = tmp_path / "labels.csv"
    rc, doc, _ = run(media_dir, tmp_path, "classify", "--fan-n", "20",
                     "--csv", str(csv_path))
    assert rc == 0
    assert len(doc["results"]["rows"]) == 20
    counts = doc["results"]["region_counts"]
    assert sum(counts.values()) == 20
    header = csv_path.read_text().splitlines()[0].split(",")
    assert {"tau", "s_label", "p_label", "combined"} <= set(header)


def test_roots_flags_glancing_row(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "roots", "--fan-n", "10")
    assert rc == 0
    rows = doc["results"]["rows"]
    flagged = [r for r in rows if r.get("skipped")]
    populated = [r for r in rows if not r.get("skipped")]
    assert len(flagged) >= 1  # the fan includes an exact P-glancing member
    assert any("glancing" in r["skipped"].lower() for r in flagged)
    assert populated and all("z_s_forward" in r for r in populated)
    assert doc["results"]["lopatinski"]["min_normalized"] > 0.0


def test_dn_and_frame_clean(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "dn", "--fan-n", "25")
    assert rc == 0 and doc["failures"] == []
    rc, doc, _ = run(media_dir, tmp_path, "frame", "--fan-n", "25",
                     medium="constant_stress.json")
    assert rc == 0 and doc["failures"] == []


def test_dn_unattainable_tolerance_fails(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "dn", "--fan-n", "10",
                     "--tol", "1e-17")
    assert rc == 1
    assert doc["failures"] != []


def test_trace_csv_samples(media_dir, tmp_path):
    csv_path = tmp_path / "ray.csv"
    rc, doc, _ = run(media_dir, tmp_path, "trace", "--mode", "S",
                     "--csv", str(csv_path))
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s,t,x1,x2,x3,xi1,xi2,xi3"
    assert len(lines) > 2
    assert set(doc["results"]["leg"]["rejected_steps"]) == {"error", "drift",
                                                          "entry"}


def test_trace_broken_transport(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "trace", "--depth", "1")
    assert rc == 0
    events = doc["results"]["events"]
    assert len(events) >= 2
    times = [e["gamma"]["t"] for e in events]
    assert times == sorted(times)


def test_lensmap_both_modes(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "lensmap", "--fan-n", "8")
    assert rc == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 8
    assert all({"S", "P"} <= set(r) for r in rows)
    # rejected steps are counted per leg, by cause
    for r in rows:
        for mode in ("S", "P"):
            counts = r[mode]["rejected_steps"]
            assert set(counts) == {"error", "drift", "entry"}
            assert all(isinstance(v, int) and v >= 0 for v in counts.values())


def test_distance_matrix(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "distance", "--points", "3",
                     "--starts", "12")
    assert rc == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 3  # unordered pairs of 3 boundary points
    for row in rows:
        for mode in ("S", "P"):
            assert row[mode]["connected"] is True
            assert row[mode]["miss"] <= 1e-9
            failed = row[mode]["failed_legs"]
            assert all(isinstance(v, int) and v > 0 for v in failed.values())
            assert sum(failed.values()) < row[mode]["n_legs"]
        assert row["P"]["distance"] < row["S"]["distance"]


def test_recover_small(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "recover", "--probes", "4",
                     medium="constant_stress.json")
    assert rc == 0
    assert doc["results"]["report"]["max_dt"] <= 1e-6


def test_selftest_green(media_dir, tmp_path):
    rc, doc, _ = run(media_dir, tmp_path, "selftest", "--samples", "400")
    assert rc == 0
    assert doc["failures"] == []


def test_reports_are_byte_deterministic(media_dir, tmp_path):
    for args in (["recover", "--probes", "3"],
                 ["distance", "--points", "2", "--starts", "8"],
                 ["lensmap", "--fan-n", "6"],
                 ["classify", "--fan-n", "200"], ["roots", "--fan-n", "200"],
                 ["trace", "--depth", "3"]):
        _, _, out1 = run(media_dir, tmp_path, *args, name="a.json")
        _, _, out2 = run(media_dir, tmp_path, *args, name="b.json")
        assert out1.read_bytes() == out2.read_bytes(), args


def test_distance_solves_at_the_given_tau(media_dir, tmp_path, monkeypatch):
    jobs = []
    real = rays.boundary_distances

    def spy(m, batch, ctrl=None):
        jobs.extend(batch)
        return real(m, batch, ctrl)

    monkeypatch.setattr(rays, "boundary_distances", spy)
    rc, doc, _ = run(media_dir, tmp_path, "distance", "--points", "2",
                     "--tau", "2.0")
    assert rc == 0 and doc["params"]["tau"] == 2.0
    assert jobs and all(job["tau"] == 2.0 for job in jobs)


def test_distance_is_independent_of_tau(media_dir, tmp_path):
    # the Hamiltonian is homogeneous in the covector, so the travel time
    # between two boundary points does not depend on the entry scale tau
    def distances(tau):
        rc, doc, _ = run(media_dir, tmp_path, "distance", "--points", "3",
                         f"--tau={tau}", medium="gaussian_bump.json",
                         name=f"tau{tau}.json")
        assert rc == 0
        return np.array([row[mode]["distance"]
                         for row in doc["results"]["rows"] for mode in "SP"])

    base = distances(1.0)
    for tau in (2.0, -1.5):
        assert np.max(np.abs(distances(tau) - base)) <= 1e-8, tau


def _recorded_params_keys():
    # the params keys of every CLI report recorded under perfbench/reference,
    # by command; the files are read, never written
    keys = {}
    root = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    for path in sorted(root.glob("*.json.gz")):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            outcomes = json.load(fh)["outcomes"]
        for text in outcomes.values():
            cli_op = json.loads(text).get("cli", {})
            if "value" in cli_op:
                report = cli_op["value"]["report"]
                keys.setdefault(report["command"], set()).update(
                    report["params"])
    return keys


# the argv of each CLI task in perfbench/workloads.py
@pytest.mark.parametrize("args", [
    ["lensmap", "--fan-n", "4"], ["recover", "--probes", "2"],
    ["trace", "--depth", "3"], ["distance", "--points", "2"],
], ids=" ".join)
def test_benchmark_reports_keep_recorded_params(args, media_dir, tmp_path):
    recorded = _recorded_params_keys()[args[0]]
    rc, doc, _ = run(media_dir, tmp_path, *args)
    assert rc == 0
    assert recorded <= set(doc["params"])


def test_import_does_not_load_scipy():
    # importing the package must stay cheap, since every CLI call pays for
    # it: no scipy module at all, scipy.optimize included
    code = ("import sys, elastoray; "
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_all_media_validate(media_dir, tmp_path):
    for name in ("constant.json", "constant_stress.json",
                 "potential_stress.json", "gaussian_bump.json"):
        rc, doc, _ = run(media_dir, tmp_path, "validate", medium=name,
                         name=f"v_{name}")
        assert rc == 0, name
        assert doc["results"]["class_report"]["admissible"] is True
