"""Fit the classical baselines (1PL IRT, PFA, LFA, item analysis) and compare
their test AUC on the same split.

Run: python demos/04_classical_baselines.py
"""

from deepkt.baselines import first_attempts, fit_irt, item_analysis
from deepkt.datasets import SyntheticConfig, generate_synthetic, split_train_test
from deepkt.harness import evaluate_baseline
from deepkt.metrics import auc, pearson

cfg = SyntheticConfig(num_students=400, num_questions=30, num_concepts=3, seed=2)
ds, gt = generate_synthetic(cfg)
train_ds, test_ds = split_train_test(ds, test_fraction=0.3, seed=0)

print("test AUC by baseline:")
for model in ("irt", "pfa", "lfa", "item_analysis"):
    pred = evaluate_baseline(model, train_ds, test_ds)
    print(f"  {model:14s} {auc(pred):.4f}")

# The 1PL fit recovers the generator's difficulty ordering; it reads the
# steps evaluate_baseline already checked.
fit = fit_irt(first_attempts(train_ds))
est = [fit.beta[j + 1] for j in range(cfg.num_questions)]
print(f"\n1PL fit converged: {fit.converged} (grad norm {fit.grad_norm:.2e})")
print(f"corr(fitted beta, true beta) = {pearson(est, gt.beta):.3f}")

# Item analysis agrees with the IRT difficulties up to the link function.
diff = item_analysis(train_ds, min_students=10)
common = sorted(diff)
r = pearson([diff[q] for q in common], [fit.beta[q] for q in common])
print(f"corr(item-analysis difficulty, 1PL beta) = {r:.3f}")
