"""Error budget: which imperfection costs how much truth-table fidelity.

Each knob is swept on its own from the extinction-ratio baseline
(18 dB couplers, 20 dB rotator, no loss asymmetries), so the marginal
costs do not entangle with one another.  Improving the extinction ratios
to 35 dB takes the fidelity to within half a percent of unity.
"""

from swapsim.config import ChipConfig, ExperimentConfig
from swapsim.experiments import run_error_budget, truth_table_fidelity_exact

base = ChipConfig(pcnot_extinction_db=18.0, mcnot_extinction_db=20.0)
cfg = ExperimentConfig(chips=(base,), n_trials=1)

sweep = {
    "pcnot_extinction_db": [18.0, 24.0, 30.0, 35.0],
    "mcnot_extinction_db": [20.0, 25.0, 30.0, 35.0],
    "loss_imbalance_db": [0.0, 0.2, 0.45, 0.9],
    "mcnot_loss_db_t": [0.0, 0.5, 1.0, 2.0],
    "rotation_error_rad": [0.0, 0.05, 0.1],
    "facet_xtalk": [0.0, 0.05, 0.1],
}
report = run_error_budget(cfg, sweep)

print(f"{'axis':>22s} {'value':>7s} {'F_tt':>8s} {'F_chi(T)':>9s}")
last_axis = None
for g in report.payload["grid"]:
    if g["axis"] != last_axis:
        print()
        last_axis = g["axis"]
    print(f"{g['axis']:>22s} {g['value']:7.2f} {g['truth_table_fidelity']:8.4f} "
          f"{g['process_fidelity_T']:9.4f}")

f0 = truth_table_fidelity_exact(base.build())
imb = ChipConfig(pcnot_extinction_db=18.0, mcnot_extinction_db=20.0,
                 pcnot_loss_imbalance_db=0.45)
f1 = truth_table_fidelity_exact(imb.build())
print(f"\nmarginal cost of the 0.9 dB H/V coupling difference alone: "
      f"{(f0 - f1) * 100:.2f} percentage points")

best = ChipConfig(pcnot_extinction_db=35.0, mcnot_extinction_db=35.0,
                  mcnot_loss_db_t=1.0)
print(f"all extinction ratios at 35 dB, no imbalance: "
      f"F_tt = {truth_table_fidelity_exact(best.build()):.4f}")
