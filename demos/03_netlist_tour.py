"""Tour of the `.pnl` netlist language: parse, format, compile, diagnose.

A chip is a pair of spatial ports plus an ordered list of component
statements; compiling lowers each statement to a Kraus channel on the
four-dimensional (channel x polarization) space and multiplies their
superoperators, in statement order, into the chip's one 16x16
superoperator.
"""

import numpy as np

from swapsim import netlist as nl
from swapsim.experiments import exact_truth_table

SRC = """\
# the measured SWAP chip, facets included
chip swap {
  ports T, B;
  facet fin  (T, B) loss_h=3dB loss_v=3dB;
  pcnot c1   (T, B) extinction=18dB imbalance=0.45dB;
  mcnot rot  (T)    extinction=20dB loss=1dB;
  pcnot c2   (T, B) extinction=18dB imbalance=0.45dB;
  facet fout (T, B) loss_h=3dB loss_v=3dB;
}
"""

ast = nl.parse(SRC)
print("canonical form (comments are discarded):\n")
print(nl.format_netlist(ast))

chip = nl.compile_netlist(ast)
# the chip is unitary up to loss, so its transfer magnitudes are the square
# roots of the exact truth table's probabilities
print("composed transfer matrix magnitudes:")
print(np.round(np.sqrt(exact_truth_table(chip)), 3))

print("\nerrors carry source spans and stable codes:")
for bad in (
    "chip c { ports T, B; pcnot a (T, X); }",
    "chip c { ports T, B; gizmo g (T); }",
    "chip c { ports T, B; pcnot a (T, B) extinction=18parsec; }",
    "chip c { ports T, B, C; pcnot a (T, B); }",
):
    try:
        nl.compile_netlist(nl.parse(bad))
        print("  unexpectedly fine:", bad)
    except (nl.ParseError, nl.CompileError) as err:
        print(f"  {err.span}: {err.code}: {err.message}")
