"""Golden alert-stream fixtures + cross-process determinism.

``tests/golden/detect_smoke_alerts.jsonl`` freezes the byte-exact alert
stream of ``repro detect --smoke``.  Every PYTHONHASHSEED must reproduce
it exactly in a fresh interpreter, on the service's fused tick path and
on the staged reference pipeline the tests keep as its oracle
(``python -m repro.service._staged_reference`` runs the same CLI on
it): the fused arena is not allowed to drift from the staged pipeline by
a single byte, across processes, ever.  A diff here means either a real
regression or an intentional output change — in the latter case the
fixture is regenerated with::

    PYTHONPATH=src python -m repro detect --smoke \
        --alerts tests/golden/detect_smoke_alerts.jsonl
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden" / "detect_smoke_alerts.jsonl"


#: The CLI entry module per tick path.
ENTRY = {"fused": "repro", "staged": "repro.service._staged_reference"}


def _run_detect(alerts: Path, cache: Path, hash_seed: str, backend: str):
    subprocess.run(
        [
            sys.executable, "-m", ENTRY[backend], "detect", "--smoke",
            "--alerts", str(alerts),
            "--cache-dir", str(cache),
        ],
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": hash_seed,
        },
    )


class TestGoldenAlertStream:
    def test_fixture_is_wellformed(self):
        lines = GOLDEN.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert any(e["event"] == "open" for e in events)
        assert any(e["event"] == "close" for e in events)
        for e in events:
            assert e["node"].startswith("rack")

    @pytest.mark.parametrize("backend", ["staged", "fused"])
    @pytest.mark.parametrize("hash_seed", ["0", "31337"])
    def test_detect_matches_golden_bytes(
        self, tmp_path, backend, hash_seed
    ):
        """The ISSUE acceptance criterion: `repro detect` output is
        byte-identical on the fused path and the staged reference,
        across hash seeds, in fresh processes — and equal to the
        committed golden stream."""
        alerts = tmp_path / "alerts.jsonl"
        _run_detect(alerts, tmp_path / "cache", hash_seed, backend)
        assert alerts.read_bytes() == GOLDEN.read_bytes()
