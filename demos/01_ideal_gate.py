"""The ideal three-gate cascade is a SWAP (plus a bit flip on both qubits).

Builds the PC-NOT / MC-NOT / PC-NOT chip with every imperfection switched
off and shows that its superoperator S equals U (x) conj(U) for
U = (X (x) X) . SWAP exactly.  Its Choi matrix then has rank 1, and the top
eigenvector recovers the cascade's operator U (up to a global phase), which
gives the computational-basis truth table

    |TH> -> |BV>     |TV> -> |TV>     |BH> -> |BH>     |BV> -> |TH>

i.e. the polarization value moves onto the spatial-momentum qubit and vice
versa, with both bits flipped on the way through.
"""

import numpy as np

from swapsim import devices as dv
from swapsim.config import ChipConfig
from swapsim.experiments import exact_truth_table

chip = ChipConfig().build()
s = chip.superoperator
target = dv.ideal_swap_unitary()
print("Frobenius distance of S to U (x) conj(U), U = (X x X).SWAP:",
      np.linalg.norm(s - np.kron(target, target.conj())))

# row-major vec: S[(a, b), (c, d)] = sum_k K[a, c] conj(K[b, d]), and the
# Choi matrix J[(a, c), (b, d)] is the same sum
choi = s.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
evals, vecs = np.linalg.eigh(choi)
print("top two Choi eigenvalues:", evals[::-1][:2])
u = np.sqrt(evals[-1]) * vecs[:, -1].reshape(4, 4)
u *= np.exp(-1j * np.angle(u.flat[np.argmax(np.abs(u))]))  # fix the global phase
print("\nrecovered ideal cascade:")
print(np.round(u.real, 6))

labels = ("TH", "TV", "BH", "BV")
probs = exact_truth_table(chip)
print("\ntruth table (rows = outputs, columns = inputs):")
print("      " + "  ".join(f"{l:>5s}" for l in labels))
for i, row in enumerate(probs):
    print(f"{labels[i]:>5s} " + "  ".join(f"{p:5.2f}" for p in row))

print("\nEach column is a single 1: the mapping is 00->11, 01->01, 10->10, 11->00.")
