"""Greedy cosine-matching core for the BERTScore computation."""

from __future__ import annotations

import numpy as np


def greedy_match(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(precision, recall) of greedy max-cosine matching between row sets.

    recall: mean over gold rows of the max cosine against pred rows;
    precision: the same with the roles swapped. Zero rows get norm 1 so they
    score 0 against everything instead of dividing by zero.
    """
    gold = np.ascontiguousarray(gold, dtype=np.float64)
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    gnorm = np.linalg.norm(gold, axis=1)
    pnorm = np.linalg.norm(pred, axis=1)
    gnorm[gnorm == 0.0] = 1.0
    pnorm[pnorm == 0.0] = 1.0
    sim = (gold / gnorm[:, None]) @ (pred / pnorm[:, None]).T
    recall = float(sim.max(axis=1).mean())
    precision = float(sim.max(axis=0).mean())
    return precision, recall
