"""Deep-IRT interpretability: per-question difficulties from the trained
difficulty head, and one student's ability trajectory over time.

Run: python demos/05_interpretability.py
"""

from deepkt.baselines import item_analysis
from deepkt.datasets import SyntheticConfig, generate_synthetic, split_train_test
from deepkt.harness import (TrainConfig, deep_irt_difficulties,
                            export_difficulty, export_trajectory, train)
from deepkt.metrics import pearson

cfg = SyntheticConfig(num_students=150, num_questions=20, num_concepts=2, seed=3)
ds, gt = generate_synthetic(cfg)
train_ds, test_ds = split_train_test(ds, test_fraction=0.3, seed=0)

config = TrainConfig(model="deep_irt", epochs=10, seq_len=20,
                     mem_slots=10, state_dim=20, feature_dim=20, seed=0)
params, _ = train(config, train_ds)

# The difficulty head gives one beta in (-1, 1) per question.
learned = deep_irt_difficulties(params)
print(f"learned difficulties for {len(learned)} questions, "
      f"range [{min(learned.values()):.2f}, {max(learned.values()):.2f}]")
print(f"corr(learned beta, generator beta) = "
      f"{pearson([learned[j + 1] for j in range(20)], gt.beta):.3f}")

# Cross-validate against a classical source via the export helper.
joins = {"item_analysis": item_analysis(train_ds, min_students=10)}
rows, pairs = export_difficulty(params, joins)
for (a, b), r in sorted(pairs.items()):
    print(f"pearson({a}, {b}) = {r:.3f}")

# Follow one held-out student step by step.
student = test_ds.sequences[0]
print(f"\ntrajectory for student {student.student_id}:")
print(" t   q  a   theta    beta     p")
for row in export_trajectory(params, student)[:10]:
    print(f"{row['t']:2d}  {row['q']:2d}  {row['a']}  "
          f"{row['theta']:+.3f}  {row['beta']:+.3f}  {row['p']:.3f}")
