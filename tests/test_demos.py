"""Every demo script runs to completion against the current API."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_tomography_demo_chi_peaks_at_identity(capsys):
    # the demo relabels the T-input chi by an X on the output, where the
    # ideal chip is the identity process: the printed Re(chi) is largest at II
    path = next(p for p in DEMOS if p.stem == "04_state_process_tomography")
    chi = runpy.run_path(str(path), run_name="__main__")["chi"]
    assert str(np.round(chi, 4)) in capsys.readouterr().out
    assert np.unravel_index(np.argmax(chi), chi.shape) == (0, 0)
