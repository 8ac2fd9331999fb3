"""Seeded, offline input generator for the benchmark workloads.

Two kinds of input come out of here, both fully determined by ``--seed``:

* ``squad``: a SQuAD v1.1 corpus shaped like the real train split (about 4.6
  questions per context, 1-3 duplicate answers per question, ~120-word
  contexts with ASCII digits), a Zipfian vocabulary of tens of thousands of
  word types, the ``dictionary:`` and ``table:`` TSV tables, an exclusion
  file and an outcome plan.
* ``eval``: a collapsed gold corpus, a predictions file and a 768-dimension
  embedding table whose cosines are known by construction, plus the plan of
  expected EM / F1 / BERT-F per question.

The plan is the reference the checker compares against. It is computed here
from the way each input was built, never by calling ``transquad``: every
token's fate (dictionary word, Latin residue, transliterated name, number,
mixed token) is known when the token is drawn, and the realignment rule is
applied as the README documents it.

Run: python3 perfbench/gen.py --kind squad --seed 1 --questions 6000 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

# Latin consonant-vowel syllables and their Devanagari renderings. Every
# generated word is a sequence of CV syllables, so the rendering is injective.
_CONSONANTS = "bdghjklmnprstvyz"
_DEV_CONSONANTS = "बडगहजकलमनपरसतवयझ"
_VOWELS = "aeiou"
_DEV_VOWEL_SIGNS = ("", "े", "ि", "ो", "ु")
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
_DIGITS = str.maketrans("0123456789", "०१२३४५६७८९")
_TRAILING_MARKS = (".", "।")

# The filter settings the plan assumes: planted short contexts fall under
# MIN_CONTEXT_LENGTH, planted non-Latin contexts are ~25% Greek letters and
# every other context is pure ASCII.
MIN_CONTEXT_LENGTH = 40
NON_LATIN_THRESHOLD = 0.05

# Planted rates for the squad kind: shares of questions (q), contexts (c) or
# articles (a). Multiple occurrences also arise naturally from the Zipfian
# vocabulary; these rates only guarantee every path is present.
RATES = {
    "qid_excluded": 0.01,  # q
    "title_excluded": 0.01,  # a
    "non_latin": 0.01,  # c
    "too_short": 0.01,  # c
    "casefold": 0.01,  # q
    "not_found": 0.02,  # q
    "empty": 0.005,  # q
    "multi": 0.03,  # q
    "mixed_token": 0.03,  # c
}
_PLANTS = ("casefold", "not_found", "empty", "multi")
_PLANT_EDGES = np.cumsum([RATES[k] for k in _PLANTS])


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def to_devanagari(word: str) -> str:
    out = []
    for i in range(0, len(word), 2):
        out.append(_DEV_CONSONANTS[_CONSONANTS.index(word[i])])
        out.append(_DEV_VOWEL_SIGNS[_VOWELS.index(word[i + 1])])
    return "".join(out)


def ascii_lower(text: str) -> str:
    return "".join(ch.lower() if "A" <= ch <= "Z" else ch for ch in text)


class Words:
    """Unique CV words drawn from the seeded generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.seen: set[str] = set()

    def fresh(self, syllables: int) -> str:
        while True:
            cons = self.rng.integers(0, len(_CONSONANTS), syllables)
            vows = self.rng.integers(0, len(_VOWELS), syllables)
            word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(cons, vows))
            if word not in self.seen:
                self.seen.add(word)
                return word


def realign_reference(ctx: str, answer: str, relative: float) -> tuple[str, str, int | None, str]:
    """The documented realignment rule: (outcome, path, start, aligned text)."""
    trimmed = answer.rstrip()
    if trimmed and trimmed[-1] in _TRAILING_MARKS:
        trimmed = trimmed[:-1]
    if not trimmed.strip():
        return "empty-after-strip", "empty", None, ""

    def occurrences(hay: str, needle: str) -> list[int]:
        found, pos = [], hay.find(needle)
        while pos != -1:
            found.append(pos)
            pos = hay.find(needle, pos + 1)
        return found

    path = "exact"
    occ = occurrences(ctx, trimmed)
    if not occ:
        occ = occurrences(ascii_lower(ctx), ascii_lower(trimmed))
        path = "casefold"
        if not occ:
            return "answer-not-found", "not-found", None, ""
    if len(occ) > 1:
        path = "multi" if path == "exact" else path
        start = min(occ, key=lambda s: (abs(s / len(ctx) - relative), s))
    else:
        start = occ[0]
    return "kept", path, start, ctx[start : start + len(trimmed)]


def generate_squad(seed: int, n_questions: int, out: Path, one_per_context: bool) -> dict:
    """Write train.json, dict.tsv, translit.tsv, exclude.txt and plan.jsonl into ``out``.

    ``one_per_context`` makes every context, question and answer text unique
    (the mt-latency shape); otherwise contexts carry about 4.6 questions.
    """
    rng = np.random.default_rng(seed)
    words = Words(rng)
    residue_share = 0.02 if one_per_context else 0.10

    # Zipfian vocabulary; shorter words for frequent ranks.
    n_types = 40_000
    vocab = [words.fresh(1 + (r >= 60) + (r >= 3000) + int(rng.integers(0, 2))) for r in range(n_types)]
    weights = 1.0 / (np.arange(n_types) + 2.7) ** 1.02
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    # Residue types (left in Latin by the engine): random types until their
    # token mass reaches the target share, skipping the head of the curve.
    residue: set[int] = set()
    mass = 0.0
    for r in rng.permutation(n_types):
        if mass >= residue_share:
            break
        if weights[r] < 0.002:
            residue.add(int(r))
            mass += weights[r]
    dictionary: dict[str, str] = {".": "।"}
    translit: dict[str, str] = {}
    for r, w in enumerate(vocab):
        if r in residue:
            if r % 2 == 0:
                translit[w] = to_devanagari(w)
        else:
            dictionary[w] = to_devanagari(w)

    def render(tok: str) -> str:
        """A token's text after translate, transliterate and digit localization."""
        w = dictionary.get(tok, tok)
        return translit.get(w, w).translate(_DIGITS)

    def draw(n: int) -> list[str]:
        return [vocab[i] for i in np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")]

    def sentence_tokens(n_words: int) -> list[str]:
        toks: list[str] = []
        while len(toks) < n_words:
            length = int(rng.integers(8, 22))
            body = draw(length)
            if rng.random() < 0.15:  # a year or a count
                body[int(rng.integers(0, length))] = str(int(rng.integers(1, 2100)))
            toks.extend(body)
            toks.append(".")
        return toks

    if one_per_context:
        q_counts = [1] * n_questions
    else:
        q_counts = []
        total = 0
        while total < n_questions:
            q_counts.append(int(rng.choice([3, 4, 5, 6], p=[0.15, 0.30, 0.30, 0.25])))
            total += q_counts[-1]
        q_counts[-1] -= total - n_questions

    articles: list[dict] = []
    plan: list[dict] = []
    excluded: list[str] = []
    seen_texts: set[str] = set()
    counts = {key: 0 for key in ("kept", "exact", "multi", "casefold", "not-found", "empty")}
    counts.update({"manual-exclusion": 0, "non-latin-content": 0, "too-short": 0, "mixed_contexts": 0, "excluded_titles": 0})

    def unique(make):
        while True:
            value = make()
            if not one_per_context or value not in seen_texts:
                seen_texts.add(value)
                return value

    paragraphs_per_article = 20 if not one_per_context else 40
    qid_counter = 0
    for ci, n_q in enumerate(q_counts):
        if ci % paragraphs_per_article == 0:
            title = f"Article_{words.fresh(3).capitalize()}"
            # The second article is always listed, so every corpus has a title exclusion.
            title_excluded = len(articles) == 1 or rng.random() < RATES["title_excluded"]
            if title_excluded:
                excluded.append(title)
                counts["excluded_titles"] += 1
            articles.append({"title": title, "paragraphs": []})
        roll = rng.random()
        kind = "normal"
        if roll < RATES["non_latin"]:
            kind = "non-latin"
        elif roll < RATES["non_latin"] + RATES["too_short"]:
            kind = "short"

        if kind == "short":
            tokens = draw(int(rng.integers(2, 4))) + ["."]  # under MIN_CONTEXT_LENGTH
        else:
            tokens = unique(lambda: " ".join(sentence_tokens(int(rng.integers(100, 140))))).split(" ")
            if kind == "non-latin":
                for i in rng.choice(len(tokens), size=len(tokens) // 4, replace=False):
                    tokens[i] = "".join(rng.choice(list(_GREEK), size=5))
            elif rng.random() < RATES["mixed_token"]:
                tokens[int(rng.integers(0, len(tokens)))] = words.fresh(2) + str(int(rng.integers(10, 99)))
                counts["mixed_contexts"] += 1
        word_idx = [i for i, t in enumerate(tokens) if t != "."]

        # Decide every question's plant first: a case-fold plant rewrites a
        # context token, which must happen before any offset is taken.
        plants = []
        for _ in range(n_q):
            roll = rng.random()
            plant = "exact"
            if kind == "normal":
                for name, edge in zip(_PLANTS, _PLANT_EDGES):
                    if roll < edge:
                        plant = name
                        break
            plants.append(plant)
        names = {}
        for qi, plant in enumerate(plants):
            if plant == "casefold":
                name = words.fresh(3).capitalize()
                dictionary[name] = name.lower()
                i = word_idx[int(rng.integers(0, len(word_idx)))]
                while tokens[i].startswith("("):
                    i = word_idx[int(rng.integers(0, len(word_idx)))]
                tokens[i] = f"({name})"
                names[qi] = i
        context = " ".join(tokens)
        offsets = []
        pos = 0
        for tok in tokens:
            offsets.append(pos)
            pos += len(tok) + 1

        def pick_span():
            n = int(rng.integers(1, 4))
            i = word_idx[int(rng.integers(0, len(word_idx)))]
            span = []
            for j in range(i, min(i + n, len(tokens))):
                if tokens[j] == "." or tokens[j].startswith("("):
                    break
                span.append(j)
            if not span:
                return pick_span()
            return " ".join(tokens[j] for j in span), offsets[span[0]]

        long_words = [i for i in word_idx if len(tokens[i]) >= 4 and tokens[i].isalpha()]

        def pick_prefix():
            i = long_words[int(rng.integers(0, len(long_words)))]
            return tokens[i][:-1], offsets[i]

        ctx_t = " ".join(render(t) for t in tokens)
        tally: dict[str, int] = {}
        for i in word_idx:
            tally[tokens[i]] = tally.get(tokens[i], 0) + 1
        repeated = [i for i in word_idx if tally[tokens[i]] > 1]

        qas = []
        for qi, plant in enumerate(plants):
            qid = f"{seed:04x}{qid_counter:08x}" + "".join(rng.choice(list("0123456789abcdef"), size=12))
            qid_counter += 1
            if plant == "casefold":
                i = names[qi]
                answer_text, start = tokens[i][1:-1], offsets[i] + 1
            elif plant == "not_found" and long_words:
                answer_text, start = pick_prefix()
                for _ in range(20):
                    if not one_per_context or answer_text not in seen_texts:
                        break
                    answer_text, start = pick_prefix()
            elif plant == "empty":
                answer_text, start = ".", offsets[-1]
            elif plant == "multi" and repeated:
                i = repeated[int(rng.integers(0, len(repeated)))]
                answer_text, start = tokens[i], offsets[i]
            else:
                answer_text, start = pick_span()
            # Texts must not repeat in the mt shape, so a repeated plant (a
            # second "." answer, say) becomes a fresh span; other kinds never
            # reach the engine.
            if one_per_context and kind == "normal":
                while answer_text in seen_texts:
                    answer_text, start = pick_span()
                seen_texts.add(answer_text)

            # Answer list: the winner by the collapse rule is always answer_text.
            shape = int(rng.integers(0, 5))
            winner = {"text": answer_text, "answer_start": start}
            others = [j for j in word_idx if tokens[j] != answer_text]
            if shape >= 3 and others:
                # A different span listed first (shape 3, losing 1:2) or
                # second (shape 4, losing the tie to the earlier winner).
                j = others[int(rng.integers(0, len(others)))]
                other = {"text": tokens[j], "answer_start": offsets[j]}
                answers = [other, winner, dict(winner)] if shape == 3 else [winner, other]
            else:
                answers = [winner] + [dict(winner) for _ in range(shape % 3)]

            question = unique(lambda: " ".join(["kim"] + draw(int(rng.integers(4, 9))) + ["?"]))
            q_tokens = question.split(" ")
            qas.append({"id": qid, "question": question, "answers": answers})

            entry: dict = {"qid": qid}
            qid_excluded = rng.random() < RATES["qid_excluded"]
            if qid_excluded:
                excluded.append(qid)
            if qid_excluded or title_excluded:
                entry.update(outcome="manual-exclusion", stage="pre-filter")
            elif kind == "non-latin":
                entry.update(outcome="non-latin-content", stage="pre-filter")
            elif kind == "short":
                entry.update(outcome="too-short", stage="pre-filter")
            if "outcome" in entry:
                counts[entry["outcome"]] += 1
                plan.append(entry)
                continue
            ans_t = " ".join(render(t) for t in answer_text.split())
            relative = min(1.0, max(0.0, start / len(context)))
            outcome, path, t_start, t_text = realign_reference(ctx_t, ans_t, relative)
            counts[path] += 1
            if outcome == "kept":
                counts["kept"] += 1
                entry.update(
                    outcome="kept",
                    path=path,
                    answer=t_text,
                    start=t_start,
                    context=digest(ctx_t),
                    question=digest(" ".join(render(t) for t in q_tokens)),
                )
            else:
                entry.update(outcome=outcome, stage="alignment", path=path)
            plan.append(entry)
        articles[-1]["paragraphs"].append({"context": context, "qas": qas})

    out.mkdir(parents=True, exist_ok=True)
    doc = {"version": "1.1", "data": articles}
    (out / "train.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    (out / "dict.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in dictionary.items()), encoding="utf-8"
    )
    (out / "translit.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in translit.items()), encoding="utf-8"
    )
    (out / "exclude.txt").write_text(
        "# planted exclusions\n" + "".join(f"{x}\n" for x in excluded), encoding="utf-8"
    )
    with (out / "plan.jsonl").open("w", encoding="utf-8") as fh:
        for entry in plan:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    sizes = {
        "questions": len(plan),
        "contexts": len(q_counts),
        "articles": len(articles),
        "context_words": sum(len(p["context"].split()) for a in articles for p in a["paragraphs"]),
        "vocabulary_types": n_types,
        "dictionary_entries": len(dictionary),
        "translit_entries": len(translit),
        "outcomes": counts,
    }
    (out / "sizes.json").write_text(json.dumps(sizes, indent=2) + "\n", encoding="utf-8")
    return sizes


# Every token vector shares one component of this squared weight, as real
# contextual embeddings share a common direction: two different tokens of one
# question have cosine SHARED / (2 + SHARED), well away from 0.
SHARED = 0.5


def generate_eval(seed: int, n_questions: int, out: Path, n_tokens: int = 2500, dim: int = 768) -> dict:
    """Write gold.json, predictions.json, embeddings.txt and plan.jsonl into ``out``.

    Token vectors are Q (e_a + e_b + sqrt(SHARED) e_0) for a random orthogonal
    Q, a in the first half of the dimensions (0 excluded) and b in the second,
    so the cosine of two tokens is (shared indices + SHARED) / (2 + SHARED).
    Tokens within one question never share an index, so every expected
    BERT-F follows from which tokens match.
    """
    rng = np.random.default_rng(seed)
    words = Words(rng)
    half = dim // 2
    other = SHARED / (2 + SHARED)  # cosine of two different tokens of one question
    vocab = []
    for i in range(n_tokens):
        w = words.fresh(2 + i % 3)
        vocab.append(to_devanagari(w) if i % 10 < 7 else w)
    pairs: dict[tuple[int, int], None] = {}
    while len(pairs) < n_tokens:
        pairs[(int(rng.integers(1, half)), int(rng.integers(half, dim)))] = None
    index = list(pairs)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vectors = (q[:, [a for a, _ in index]] + q[:, [b for _, b in index]]).T + np.sqrt(SHARED) * q[:, 0]
    fillers = [to_devanagari(words.fresh(3)) for _ in range(200)]

    def disjoint_tokens(n: int, used: set[int]) -> list[int]:
        picked: list[int] = []
        while len(picked) < n:
            t = int(rng.integers(0, n_tokens))
            a, b = index[t]
            if a not in used and b not in used:
                used.update((a, b))
                picked.append(t)
        return picked

    def f_score(overlap: int, n_gold: int, n_pred: int, miss: float = 0.0) -> float:
        """Harmonic mean when matched tokens score 1 and the others ``miss``."""
        p = (overlap + (n_pred - overlap) * miss) / n_pred
        r = (overlap + (n_gold - overlap) * miss) / n_gold
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    articles: list[dict] = []
    predictions: dict[str, str] = {}
    plan: list[dict] = []
    counts = {k: 0 for k in ("exact", "variant", "disjoint", "overlap", "skipped")}
    done = 0
    paragraphs = 0
    while done < n_questions:
        n_q = min(n_questions - done, int(rng.choice([3, 4, 5, 6])))
        if paragraphs % 40 == 0:
            articles.append({"title": f"Eval_{words.fresh(3).capitalize()}", "paragraphs": []})
        parts: list[str] = []
        qas = []
        for _ in range(n_q):
            qid = f"e{seed:04x}{done:08x}"
            done += 1
            used: set[int] = set()
            gold_ids = disjoint_tokens(int(rng.integers(1, 6)), used)
            gold = " ".join(vocab[t] for t in gold_ids)
            parts.extend(fillers[int(i)] for i in rng.integers(0, len(fillers), 6))
            start = len(" ".join(parts)) + 1  # after the fillers and one space
            parts.append(gold)
            qas.append({"id": qid, "question": f"kim {qid} ?", "answers": [{"text": gold, "answer_start": start}]})
            roll = rng.random()
            if roll < 0.01:
                kind = "skipped"
                plan.append({"qid": qid, "kind": kind})
                counts[kind] += 1
                continue
            n = len(gold_ids)
            if roll < 0.40:
                kind, pred_ids, k, pred = "exact", gold_ids, n, gold
            elif roll < 0.60:
                toks = [vocab[t].capitalize() if vocab[t].isascii() else vocab[t] for t in gold_ids]
                kind, pred_ids, k, pred = "variant", gold_ids, n, '"' + " ".join(toks) + '."'
            else:
                if roll < 0.75 or n == 1:
                    kind, k, pred_ids = "disjoint", 0, disjoint_tokens(int(rng.integers(1, 5)), used)
                else:
                    kind, k = "overlap", int(rng.integers(1, n))
                    pred_ids = [gold_ids[i] for i in rng.permutation(n)[:k]]
                    pred_ids += disjoint_tokens(int(rng.integers(0, 3)), used)
                    pred_ids = [pred_ids[i] for i in rng.permutation(len(pred_ids))]
                pred = " ".join(vocab[t] for t in pred_ids)
            predictions[qid] = pred
            plan.append({
                "qid": qid,
                "kind": kind,
                "em": int(k == n == len(pred_ids)),
                "f1": f_score(k, n, len(pred_ids)),
                "bert_f": f_score(k, n, len(pred_ids), miss=other),
            })
            counts[kind] += 1
        articles[-1]["paragraphs"].append({"context": " ".join(parts), "qas": qas})
        paragraphs += 1

    out.mkdir(parents=True, exist_ok=True)
    doc = {"version": "1.1", "data": articles}
    (out / "gold.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    (out / "predictions.json").write_text(json.dumps(predictions, ensure_ascii=False), encoding="utf-8")
    with (out / "embeddings.txt").open("w", encoding="utf-8") as fh:
        for token, row in zip(vocab, vectors):
            fh.write(token + " " + " ".join(map("{:.6g}".format, row.tolist())) + "\n")
    with (out / "plan.jsonl").open("w", encoding="utf-8") as fh:
        for entry in plan:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    sizes = {
        "questions": len(plan),
        "predictions": len(predictions),
        "embedding_tokens": n_tokens,
        "embedding_dim": dim,
        "outcomes": counts,
    }
    (out / "sizes.json").write_text(json.dumps(sizes, indent=2) + "\n", encoding="utf-8")
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=("squad", "mt", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--questions", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.kind == "eval":
        sizes = generate_eval(args.seed, args.questions, out)
    else:
        sizes = generate_squad(args.seed, args.questions, out, one_per_context=args.kind == "mt")
    print(json.dumps(sizes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
