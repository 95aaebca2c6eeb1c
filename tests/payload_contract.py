"""The payload contract: the argv whose `payload_sha256` no change may move
by accident, and the script that records their hashes.

A fixed (config, seed) gives a byte-identical payload.  The manifest
`tests/data/payload_contract.json` holds the hash of each argv of `ARGV`,
with the numpy version, Python version and machine it was made on;
`test_payload_contract.py` runs each argv again and compares.  After a
change that moves a payload on purpose, rewrite the manifest from the
repository root:

    PYTHONPATH=src python tests/payload_contract.py

and the manifest's diff lists the moved hashes.
"""

from __future__ import annotations

import json
import os
import platform
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MANIFEST = REPO / "tests" / "data" / "payload_contract.json"

OPS = ("truth-table", "fringe", "hom", "bell", "bell --label psi-", "tomo-state",
       "tomo-process", "tomo-process --two-qubit", "sweep",
       "sweep --grid er=18,35 --grid facet_xtalk=0,0.1")
SOURCES = ("--config demos/data/config_measured.json", "--netlist demos/data/swap_measured.pnl")
# every argv, as words joined by single spaces, run from the repository root
ARGV = tuple(f"{op} {source} --seed {seed} --trials {trials}"
             for op in OPS for source in SOURCES for seed in (7, 4242) for trials in (1, 100))


def environment() -> dict:
    """What a payload's last bit may depend on: numpy's streams and kernels,
    and the machine they run on."""
    import numpy as np

    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": platform.python_version()}


def payload_sha256(argv: str) -> str:
    """The `payload_sha256` of the report that `swapsim ARGV` prints."""
    from swapsim import cli

    out = StringIO()
    with redirect_stdout(out):
        rc = cli.dispatch(argv.split(" "))
    if rc != 0:
        raise RuntimeError(f"swapsim {argv} exited {rc}")
    return json.loads(out.getvalue())["payload_sha256"]


def main() -> None:
    os.chdir(REPO)
    manifest = {"environment": environment(),
                "payload_sha256": {argv: payload_sha256(argv) for argv in ARGV}}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(ARGV)} hashes to {MANIFEST.relative_to(REPO)}")


if __name__ == "__main__":
    main()
