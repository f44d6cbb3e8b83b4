"""Grid-sweeping the three attention hyperparameters.

K is the hidden channel count of the pixel classifier, lambda the weight of
the map's L1 penalty, and E the cut-off epoch after which the map freezes.
Each cell trains from scratch and reports accuracy under the configured
evaluation protocol; rows land in a CSV.

Run: python3 demos/hyperparameter_sweep.py
"""

from globalattn import SyntheticSpec, TrainConfig, generate_synthetic, split_train_test
from globalattn.training import grid_configs, sweep, sweep_csv_text

# a faint signal in a small rectangle, so the grid cells actually differ
spec = SyntheticSpec(n=96, c=1, w=16, h=16, relevant_region=(6, 6, 9, 9),
                     num_classes=3, signal_strength=0.8, noise_std=1.0,
                     seed=3)
batch, _ = generate_synthetic(spec)
train_set, test_set = split_train_test(batch, 0.75, seed=3)

base = TrainConfig(total_epochs=12, cutoff_epoch=4, batch_size=12,
                   stages=(8,), seed=3)
cells = grid_configs(base, k_values=[4, 8], lambda_values=[0.1, 0.01],
                     e_values=[4, 12])
rows = sweep(train_set, test_set, cells, jobs=1)

print(sweep_csv_text(rows), end="")
best = max(rows, key=lambda r: r[3])
print(f"\nbest cell: K={best[0]}, lambda={best[1]}, E={best[2]} "
      f"-> {best[3]:.1f}% (std {best[4]:.1f})")
