"""The payload contract across commits: each argv of the contract set gives
the `payload_sha256` recorded in `tests/data/payload_contract.json`
(`payload_contract.py` says how to rewrite it)."""

import json

import pytest
from payload_contract import ARGV, MANIFEST, REPO, environment, payload_sha256

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))


def _environment_mismatch() -> str | None:
    """Why the recorded hashes need not hold here, or None.  NumPy keeps its
    `Generator` streams only within a feature release, and BLAS and SIMD
    paths may move the last bit of an exact field on another machine."""
    made, here = RECORDED["environment"], environment()
    if made["numpy"].split(".")[:2] != here["numpy"].split(".")[:2]:
        return f"numpy {here['numpy']} is not the manifest's feature release {made['numpy']}"
    if made["machine"] != here["machine"]:
        return f"machine {here['machine']} is not the manifest's {made['machine']}"
    return None


def test_the_manifest_holds_the_contract_set():
    assert list(RECORDED["payload_sha256"]) == list(ARGV)
    assert len(ARGV) == 80


@pytest.mark.parametrize("argv", ARGV)
def test_the_payload_hash_is_the_recorded_one(argv, monkeypatch):
    if (mismatch := _environment_mismatch()) is not None:
        pytest.skip(f"{mismatch}: the recorded hashes hold only where they were made, and "
                    "a tolerance mode for other environments is not built (ROADMAP item 12)")
    monkeypatch.chdir(REPO)
    assert payload_sha256(argv) == RECORDED["payload_sha256"][argv]
