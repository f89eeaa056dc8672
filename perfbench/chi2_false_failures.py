"""False-failure rate of the simulate oracle's chi-square checks.

    python3 perfbench/chi2_false_failures.py [--draws 1000000]

Draws i.i.d. uniform symbol sequences of SIM_ROUNDS symbols, the exact
process of the simulate channels, and counts how often the two tests of
``workloads.iid_uniform_failure`` reject them, vectorized over draws.
"""

from __future__ import annotations

import argparse

import numpy as np
from scipy.stats import chi2

from workloads import CHI2_ALPHA, SIM_ROUNDS


def rejections(k: int, draws: int, rng: np.random.Generator, batch: int = 50_000) -> tuple[int, int]:
    n = SIM_ROUNDS
    t_counts, t_rows = chi2.isf(CHI2_ALPHA, k - 1), chi2.isf(CHI2_ALPHA, k * (k - 1))
    by_counts = by_rows = 0
    for start in range(0, draws, batch):
        b = min(batch, draws - start)
        seq = rng.integers(k, size=(b, n))
        counts = np.stack([(seq == s).sum(axis=1) for s in range(k)], axis=1)
        stat = ((counts - n / k) ** 2 / (n / k)).sum(axis=1)
        cells = (np.arange(b)[:, None] * k * k + seq[:, :-1] * k + seq[:, 1:]).ravel()
        pairs = np.bincount(cells, minlength=b * k * k).reshape(b, k, k).astype(float)
        rows = pairs.sum(axis=2, keepdims=True)
        expected = np.where(rows > 0, rows / k, 1.0)
        row_stat = ((pairs - rows / k) ** 2 / expected).sum(axis=(1, 2))
        by_counts += int((stat > t_counts).sum())
        by_rows += int(((stat <= t_counts) & (row_stat > t_rows)).sum())
    return by_counts, by_rows


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=1_000_000)
    args = p.parse_args()
    for k in (2, 3, 7):
        c, r = rejections(k, args.draws, np.random.default_rng(k))
        print(f"k={k}: {c} rejected on symbol counts, {r} on bigram rows, of {args.draws}")


if __name__ == "__main__":
    main()
