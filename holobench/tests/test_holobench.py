"""Tests of the benchmark itself: names, inputs, pins and the tracer."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == harness.END_TO_END)
    layers = dict(spans.LAYER_METRICS, **{"trace.overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    names = ([w["name"] for w in spec["workloads"]] + list(harness.PROBES)
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_seed_changes_spelling_not_values():
    import holoproj

    for workload, spec in harness.WORKLOADS.items():
        a, b = harness.make_inputs(workload, 1), harness.make_inputs(workload, 2)
        assert harness.make_inputs(workload, 1) == a
        if spec["kind"] == "verify":
            chars = [(doc["config"]["psi"], doc["config"]["chi"]) for doc in (a, b)]
        else:
            chars = [tuple(doc["chars"]) for doc in (a, b)]
        parsed = [[holoproj.char_from_spec(c) for c in pair] for pair in chars]
        assert parsed[0] == parsed[1]
    spellings = {json.dumps(harness.make_inputs("full-l4", s)) for s in range(8)}
    assert len(spellings) > 1


def _attribute_snapshot():
    import holoproj  # noqa: F401
    import holoproj.cli  # noqa: F401

    snap = {}
    for module in spans._holoproj_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("holoproj"):
                for name, member in vars(value).items():
                    snap[(module.__name__, attr, name)] = member
    return snap


def test_tracer_records_and_removes_wrappers():
    import holoproj

    before = _attribute_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert holoproj.projection.theta_power_direct is not before[
            ("holoproj.projection", "theta_power_direct")]
        psi, chi = holoproj.char_kronecker(-4), holoproj.char_kronecker(8)
        cfg = holoproj.ProjectionConfig(psi, chi, 4, 12, modes=("ordered", "full"), B=64)
        holoproj.residual_report(cfg, b_schedule=[32, 64])
        holoproj.theta_power_series(psi, 4, 64)
    finally:
        tracer.uninstall()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    layers = tracer.layer_metrics()
    assert layers["theta.direct_calls"] == 4
    assert layers["theta.direct_n_total"] == 32 + 44 + 64 + 76
    assert layers["projection.full_calls"] == 2
    assert layers["qseries.mul_calls"] == 2
    assert layers["projection.compositions"] > 0
    assert 0 < layers["characters.zero_frac"] < 1
    assert layers["rings.lift"] == 0
    assert layers["projection.full_self_s"] <= layers["projection.report_s"]


def test_pinned_digest_matches(tmp_path):
    inputs = harness.make_inputs("full-l4", 0)
    (tmp_path / "config.json").write_text(json.dumps(inputs["config"]))
    sample = harness.run_child(inputs, tmp_path)
    assert harness.sample_failure(sample, harness.PINNED["full-l4"]) is None
    assert harness.sample_failure(dict(sample, returncode=1), harness.PINNED["full-l4"])


def test_corrupted_digest_counts_as_failure(monkeypatch):
    monkeypatch.setattr(harness, "MIN_SAMPLES", 1)
    monkeypatch.setattr(harness, "SETUP_PROBES", 0)
    monkeypatch.setitem(harness.PINNED, "full-l4", "0" * 64)
    result = harness.run_workload("full-l4", 0, 0)
    assert result["attempted"] == result["failed"] == 1
    assert "digest" in result["failures"][0]
    assert harness.contract_line(result, False)["correct"] is False


def test_compare_flags_only_what_got_worse_by_more_than_its_bound(spec):
    import compare

    def result(wall, rss, failed):
        stats = {"wall_s": {"value": wall}, "setup_s": {"value": 0.1},
                 "peak_rss_mb": {"value": rss}}
        return {"workloads": {"w": {"stats": stats, "attempted": 4, "failed": failed}}}

    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = result(1.0, 30.0, 0)
    same = result(1.0 + bound["wall_s"] / 2, 30.0, 0)
    assert not any(row[-1] for row in compare.compare(old, same, spec))
    worse = result(1.0 + 2 * bound["wall_s"], 30.0 * (1 + 2 * bound["peak_rss_mb"]), 1)
    flagged = {row[1] for row in compare.compare(old, worse, spec) if row[-1]}
    assert flagged == {"wall_s", "peak_rss_mb", "fail_frac"}
