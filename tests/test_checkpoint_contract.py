"""The crash-recovery contract, enforced per scenario.

For **every** registered ``fleet-detect*`` scenario at smoke size:
interrupting the replay at the middle tick and resuming from the
checkpoint must produce alert JSONL **byte-identical** to an
uninterrupted run — with the two runs in separate processes under
*different* ``PYTHONHASHSEED`` values, so no accidental hash-order
dependence can hide in either the replay or the checkpoint codecs.

Each scenario resumes twice: from the checkpoint as written (manifest
``"backend": "fused"``) and from the same checkpoint stamped
``"backend": "staged"``, as writers from before the single tick path
stamped every default checkpoint — both must resume to the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.registry import list_scenarios

SRC = Path(__file__).resolve().parent.parent / "src"
DRIVER = Path(__file__).resolve().parent / "_checkpoint_driver.py"

#: Cycled across runs so the full run and each resume of a scenario
#: always see different hash seeds.
HASH_SEEDS = ("0", "7", "31337")


def fleet_detect_scenarios() -> list[str]:
    return sorted(
        s.name
        for s in list_scenarios()
        if s.kind.startswith("fleet-detect")
    )


def test_sweep_covers_all_registered_fleet_scenarios():
    """If someone registers a new fleet-detect* scenario, it joins the
    contract sweep automatically — this just pins the current floor."""
    names = fleet_detect_scenarios()
    assert {
        "fleet-detect",
        "fleet-detect-scale",
        "fleet-detect-noise",
        "fleet-detect-chaos",
    } <= set(names)


@pytest.fixture(scope="session")
def contract_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract_cache"))


@pytest.fixture(scope="session")
def full_runs():
    """Uninterrupted-run JSONL per scenario, shared by its resumes."""
    return {}


def run_driver(scenario, stamp, cache, out, workdir, mode, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, str(DRIVER), scenario, stamp, cache,
         str(out), str(workdir), mode],
        check=True,
        env=env,
        cwd=str(SRC.parent),
        capture_output=True,
    )


@pytest.mark.parametrize("stamp", ("staged", "fused"))
@pytest.mark.parametrize("scenario", fleet_detect_scenarios())
def test_interrupt_resume_byte_identical(
    scenario, stamp, contract_cache, full_runs, tmp_path
):
    # one full-run seed per scenario; each resume takes another one
    idx = hash(scenario) % len(HASH_SEEDS)
    if scenario not in full_runs:
        full = tmp_path / "full.jsonl"
        run_driver(
            scenario, "fused", contract_cache, full, tmp_path, "full",
            HASH_SEEDS[idx],
        )
        full_runs[scenario] = full.read_bytes()
    resumed = tmp_path / "resumed.jsonl"
    shift = 1 if stamp == "fused" else 2
    run_driver(
        scenario, stamp, contract_cache, resumed, tmp_path, "resume",
        HASH_SEEDS[(idx + shift) % len(HASH_SEEDS)],
    )
    assert full_runs[scenario] == resumed.read_bytes()
    assert full_runs[scenario], "smoke replay should emit alerts"
