"""Compare the merging schedule against its ablations on equal budgets.

Four ways to reach a 16-bit code:

  full      train 24 bits, merge down to 16 (score-driven grouping)
  baseline  train 16 bits directly for the same total epoch count
  random    train 24 bits, merge down with random groupings
  select    train 24 bits, keep the 16 highest-scoring bits, drop the rest

Each variant runs on the same synthetic benchmark over a few seeds;
the table reports median MAP and the median spread of the leave-one-bit-out
profile (smaller spread = less dependence on any single bit).
"""

import dataclasses
import statistics

from nmhash.data import generate_synthetic
from nmhash.network import SgdConfig
from nmhash.training import ExperimentConfig, TrainingRun

SEEDS = (1, 2, 3)
DESK_SGD = SgdConfig(learning_rate=1e-7, weight_decay=1e-5)

dataset = generate_synthetic(8, 16, 250, 2.0, seed=0)

# full: 30 base + 2 rounds x (5 active + 40 frozen) = 120 epochs.
# baseline gets the same 120 epochs at the final width so the comparison
# is budget-matched, not just width-matched; budget_matched does the sum.
FULL = ExperimentConfig(b_in=24, b_out=16, m=4, base_epochs=30,
                        backbone_sgd=DESK_SGD)


rows = []
for variant in ("full", "baseline", "random", "select"):
    maps, spreads = [], []
    for seed in SEEDS:
        cfg = dataclasses.replace(FULL.budget_matched(variant), seed=seed)
        report = TrainingRun(cfg, dataset).run().report()
        maps.append(report.final["map"])
        spreads.append(report.leave_one_out["std"])
    rows.append((variant, statistics.median(maps),
                 statistics.median(spreads)))
    print(f"{variant}: seeds done, per-seed MAP "
          + " ".join(f"{v:.4f}" for v in maps))

print(f"\n{'variant':<10} {'median MAP':>11} {'median LOO std':>15}")
for variant, map_med, spread_med in rows:
    print(f"{variant:<10} {map_med:>11.4f} {spread_med:>15.5f}")

full_spread = rows[0][2]
base_spread = rows[1][2]
print(f"\nmerging spreads the ranking load across bits: LOO std "
      f"{full_spread:.5f} (full) vs {base_spread:.5f} (baseline)")
