"""The benchmark's pinned output digests for the workloads that holobench's
own tests do not run (they run full-l4).  Each workload runs once in a fresh
child, exactly as a benchmark sample does."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "holobench"))

import harness  # noqa: E402


@pytest.mark.parametrize("workload", ["ordered-l6", "cyclo-l4", "theta-dual"])
def test_workload_output_matches_its_pinned_digest(workload, tmp_path):
    inputs = harness.make_inputs(workload, 0)
    if inputs["kind"] == "verify":
        (tmp_path / "config.json").write_text(json.dumps(inputs["config"]))
    sample = harness.run_child(inputs, tmp_path)
    assert harness.sample_failure(sample, harness.PINNED[workload]) is None
