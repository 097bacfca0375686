"""Unit tests for ``capture.py``'s execution-tier knob.

``--runtime`` pins the tier a capture records by setting
``REPRO_SOA_KERNELS`` before anything simulates.  These tests drive
:func:`capture.main` through ``--check`` against a file with no recorded
runs, which returns before the suite runs, so they take milliseconds.
"""

from __future__ import annotations

import json
import os

import pytest

import capture


@pytest.fixture
def empty_capture(tmp_path):
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"runs": {}}), encoding="utf8")
    return path


@pytest.mark.parametrize("runtime,env", [("scalar", "0"), ("soa", "1")])
def test_runtime_sets_the_soa_kernel_knob(monkeypatch, capsys, empty_capture, runtime, env):
    monkeypatch.setenv("REPRO_SOA_KERNELS", "unset")
    assert capture.main(["--runtime", runtime, "--check", str(empty_capture)]) == 1
    assert "no recorded runs" in capsys.readouterr().err
    assert os.environ["REPRO_SOA_KERNELS"] == env


def test_runtime_accepts_only_the_two_tiers(monkeypatch, capsys, empty_capture):
    monkeypatch.setenv("REPRO_SOA_KERNELS", "unset")
    with pytest.raises(SystemExit) as excinfo:
        capture.main(["--runtime", "vectorized", "--check", str(empty_capture)])
    assert excinfo.value.code == 2
    assert "choose from 'scalar', 'soa'" in capsys.readouterr().err
    assert os.environ["REPRO_SOA_KERNELS"] == "unset"
