"""Greedy cosine-matching core for the BERTScore computation."""

from __future__ import annotations

import numpy as np


def greedy_match(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(precision, recall) of greedy max-cosine matching between row sets.

    recall: mean over gold rows of the max cosine against pred rows;
    precision: the same with the roles swapped. Zero rows get norm 1 so they
    score 0 against everything instead of dividing by zero.

    The ufuncs are called directly: a row norm is what ``np.linalg.norm(x,
    axis=1)`` computes for real input, and a mean what ``ndarray.mean`` does,
    to the bit, without their Python wrappers, which cost more than the
    arithmetic on an answer's few rows.
    """
    gold = np.ascontiguousarray(gold, dtype=np.float64)
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    gnorm = np.sqrt(np.add.reduce(gold * gold, axis=1))
    pnorm = np.sqrt(np.add.reduce(pred * pred, axis=1))
    gnorm[gnorm == 0.0] = 1.0
    pnorm[pnorm == 0.0] = 1.0
    sim = (gold / gnorm[:, None]) @ (pred / pnorm[:, None]).T
    recall = float(np.add.reduce(np.maximum.reduce(sim, axis=1)) / sim.shape[0])
    precision = float(np.add.reduce(np.maximum.reduce(sim, axis=0)) / sim.shape[1])
    return precision, recall
