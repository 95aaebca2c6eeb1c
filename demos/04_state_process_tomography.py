"""Single-qubit state and process tomography of the chip.

For a fixed spatial input mode, the polarization qubit is prepared in the
four tomography states; the counts of the six interferometer settings give
the shot-noise fidelity of the output spatial-momentum qubit, and the
process matrix chi is solved from the exact output states.  The runners
report in the raw frame, where the ideal chip flips the momentum bit.  The
demo relabels the outputs itself (an X on the output labels), which makes
the ideal chip read as the identity process, so chi concentrates on the II
corner; relabeling leaves every fidelity and purity as it is.
"""

import numpy as np

from swapsim.config import ExperimentConfig
from swapsim.experiments import run_process_tomography, run_state_tomography

cfg = ExperimentConfig.measured_chip(n_trials=30, rng_seed=11)
x = np.array([[0, 1], [1, 0]])
# X P = sum_k A[k, P] P_k for each Pauli P of (I, X, Y, Z), so the process
# followed by X has chi matrix A chi A^dag
a = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]])

print("state tomography: |D> polarization in at the T port")
r = run_state_tomography(cfg, "T", "D")
rec = np.array(r.payload["reconstructed_real"]) + 1j * np.array(
    r.payload["reconstructed_imag"])
print("exact output spatial-momentum qubit (relabeled frame):")
print(np.round(x @ rec @ x, 4))
print(f"fidelity to the input polarization state: exact "
      f"{r.payload['fidelity_exact']:.4f}, shot-noise mean "
      f"{r.payload['fidelity_mc_mean']:.4f} +/- {r.payload['fidelity_mc_stderr']:.4f}")

print("\nprocess tomography over the four spatial input modes:")
r = run_process_tomography(cfg)
for k, v in r.payload["per_spatial_input"].items():
    print(f"  input |{k:>2s}>: F_chi = {v['process_fidelity']:.4f}   "
          f"P_chi = {v['process_purity']:.4f}")
print(f"  average:    F_chi = {r.payload['process_fidelity_avg']:.4f}   "
      f"P_chi = {r.payload['process_purity_avg']:.4f}")

t = r.payload["per_spatial_input"]["T"]
chi = (a @ (np.array(t["chi_real"]) + 1j * np.array(t["chi_imag"])) @ a.conj().T).real
print("\nRe(chi) for the T input, relabeled (I, X, Y, Z basis):")
print(np.round(chi, 4))
print("\nThe mass in the II corner is the identity-process weight; the")
print("X/Y/Z diagonal entries are the bit/phase-flip error probabilities.")
