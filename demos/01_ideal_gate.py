"""The ideal three-gate cascade is a SWAP (plus a bit flip on both qubits).

Builds the PC-NOT / MC-NOT / PC-NOT chip with every imperfection switched
off and shows that the composed operator equals (X (x) X) . SWAP exactly,
which gives the computational-basis truth table

    |TH> -> |BV>     |TV> -> |TV>     |BH> -> |BH>     |BV> -> |TH>

i.e. the polarization value moves onto the spatial-momentum qubit and vice
versa, with both bits flipped on the way through.
"""

import numpy as np

from swapsim import devices as dv
from swapsim.config import ChipConfig
from swapsim.experiments import exact_truth_table

chip = ChipConfig().build()
u = chip.channel().kraus[0]
target = dv.ideal_swap_unitary()

print("composed ideal cascade:")
print(np.round(u.real, 6))
print("\nFrobenius distance to (X x X).SWAP:", np.linalg.norm(u - target))

labels = ("TH", "TV", "BH", "BV")
probs = exact_truth_table(chip)
print("\ntruth table (rows = outputs, columns = inputs):")
print("      " + "  ".join(f"{l:>5s}" for l in labels))
for i, row in enumerate(probs):
    print(f"{labels[i]:>5s} " + "  ".join(f"{p:5.2f}" for p in row))

print("\nEach column is a single 1: the mapping is 00->11, 01->01, 10->10, 11->00.")
