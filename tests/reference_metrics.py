"""Reference metrics written from their published definitions, for differential tests.

``squad_normalize``, ``squad_exact_match`` and ``squad_f1`` follow the SQuAD
v1.1 evaluation (Rajpurkar et al., arXiv:1606.05250): lower-case, delete
ASCII punctuation, drop the articles ``a``/``an``/``the``, split on
whitespace; EM compares the token lists, F1 is the harmonic mean of the
multiset overlap's precision and recall, and 0 when nothing overlaps.
``squad_score`` takes the maximum over several gold answers, which
``evaluate_predictions`` does not accept.

``greedy_match`` is the BERTScore greedy-matching core (Zhang et al.,
arXiv:1904.09675) written with ``np.linalg.norm`` and ``ndarray.mean``, the
numpy calls that ``transquad._kernels.greedy_match`` makes through the
ufuncs beneath them. Both must give the same bits.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Callable

import numpy as np

ARTICLE = re.compile(r"\b(a|an|the)\b")


def squad_normalize(text: str, punctuation: str = string.punctuation) -> list[str]:
    """SQuAD v1.1 answer normalization; ``punctuation`` is the set of characters deleted."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in punctuation)
    return ARTICLE.sub(" ", text).split()


def has_article(text: str) -> bool:
    """Whether SQuAD v1.1 normalization would drop an article from ``text``."""
    text = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    return ARTICLE.search(text) is not None


def squad_exact_match(gold_tokens: list[str], pred_tokens: list[str]) -> int:
    return int(gold_tokens == pred_tokens)


def squad_f1(gold_tokens: list[str], pred_tokens: list[str]) -> float:
    same = sum((Counter(gold_tokens) & Counter(pred_tokens)).values())
    if same == 0:
        return 0.0
    precision = same / len(pred_tokens)
    recall = same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def squad_score(
    metric: Callable[[list[str], list[str]], float], golds: list[str], pred: str
) -> float:
    """The best score of ``pred`` against any of the gold answers."""
    return max(metric(squad_normalize(gold), squad_normalize(pred)) for gold in golds)


def greedy_match(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(precision, recall) of greedy max-cosine matching; zero rows get norm 1."""
    gnorm = np.linalg.norm(gold, axis=1)
    pnorm = np.linalg.norm(pred, axis=1)
    gnorm[gnorm == 0.0] = 1.0
    pnorm[pnorm == 0.0] = 1.0
    sim = (gold / gnorm[:, None]) @ (pred / pnorm[:, None]).T
    return float(sim.max(axis=0).mean()), float(sim.max(axis=1).mean())
