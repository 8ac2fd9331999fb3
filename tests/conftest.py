"""Shared fixtures: deterministic corpus builders, word pools and test doubles."""

from __future__ import annotations

import itertools
import math
import random
import threading
from pathlib import Path

import pytest

from transquad.corpus import AnswerSpan, Corpus, QaRecord
from transquad.evaluation import EmbeddingProvider
from transquad.script_tools import Transliterator
from transquad.translation import TranslationEngine

DATA_DIR = Path(__file__).parent / "data"

# Letter-only pools: the identity-pipeline oracle needs fixtures that digit
# localization and period stripping cannot alter.
ENGLISH_WORDS = (
    "the river flows past old stone bridges and quiet markets where traders "
    "sell woven cloth spiced tea and copper lamps while children chase kites "
    "along dusty lanes near temple walls covered in faded paint"
).split()

DEVANAGARI_WORDS = (
    "मराठी प्रश्न उत्तर शिकणे जन्म गायिका संगीत चित्रपट भाषा पुस्तक शहर नदी डोंगर वारा "
    "पाऊस आकाश समुद्र प्रवास कथा कविता इतिहास विज्ञान शेती बाजार मंदिर रस्ता घर शाळा"
).split()


class UppercaseEngine(TranslationEngine):
    """Uppercases input; handy for spotting what actually went through."""

    engine_id = "uppercase"

    def translate(self, texts, source_lang, target_lang):
        return [t.upper() for t in texts]


class CountingEngine(TranslationEngine):
    """Wraps another engine, counts invocations and records each call's texts."""

    def __init__(self, inner: TranslationEngine):
        self.inner = inner
        self.engine_id = inner.engine_id
        self.calls = 0
        self.texts_translated = 0
        self.sent: list[list[str]] = []

    def translate(self, texts, source_lang, target_lang):
        self.calls += 1
        self.texts_translated += len(texts)
        self.sent.append(list(texts))
        return self.inner.translate(texts, source_lang, target_lang)


class CountingTransliterator(Transliterator):
    """Wraps another transliterator and records what it was asked to handle; thread-safe."""

    def __init__(self, inner: Transliterator):
        self.inner = inner
        self.calls = 0
        self.tokens_seen: list[str] = []
        self._lock = threading.Lock()

    def transliterate(self, tokens):
        with self._lock:
            self.calls += 1
            self.tokens_seen.extend(tokens)
        return self.inner.transliterate(tokens)


class CountingEmbedder(EmbeddingProvider):
    """Wraps another embedding provider and records the token lists it was asked for."""

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner
        self.calls: list[list[str]] = []

    def embed(self, tokens):
        self.calls.append(list(tokens))
        return self.inner.embed(tokens)


def gateway_chunks(items: list, batch_size: int, max_workers: int) -> list[list]:
    """The chunks ``call_model`` sends ``items`` in, by its rule, written out plainly.

    ``ceil(n / batch_size)`` chunks, rounded up to a multiple of
    ``max_workers`` when there are several chunks and several workers, but
    no more chunks than items; cut in input order, the longer ones first,
    with sizes that differ by at most one.
    """
    n = len(items)
    count = math.ceil(n / batch_size)
    if count > 1 and max_workers > 1:
        count = min(n, math.ceil(count / max_workers) * max_workers)
    sizes = [n // count + 1] * (n % count) + [n // count] * (count - n % count) if count else []
    ends = list(itertools.accumulate(sizes))
    return [items[end - size : end] for size, end in zip(sizes, ends)]


def alpha_suffix(i: int) -> str:
    """Base-26 letters-only counter, so generated tokens never carry digits."""
    out = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out.append(chr(ord("a") + rem))
    return "".join(reversed(out))


def make_record(
    qid: str,
    context: str,
    answer: str,
    start: int | None = None,
    question: str | None = None,
    title: str = "article",
) -> QaRecord:
    if start is None:
        start = context.index(answer)
    return QaRecord(
        qid=qid,
        question=question or f"which part of {qid}",
        context=context,
        answers=(AnswerSpan(text=answer, start=start),),
        title=title,
    )


def build_english_corpus(n: int, split: str = "train", seed: int = 7) -> Corpus:
    """n records with valid spans and answers unique within their contexts.

    Answer tokens start with "xq", a bigram absent from the word pool, so each
    answer occurs exactly once in its context. No digits, no trailing periods.
    """
    rng = random.Random(seed)
    records = []
    for i in range(n):
        answer = f"xq{alpha_suffix(i)}"
        words = rng.choices(ENGLISH_WORDS, k=rng.randint(8, 16))
        slot = rng.randrange(len(words) + 1)
        words.insert(slot, answer)
        context = " ".join(words)
        records.append(
            make_record(
                qid=f"q{alpha_suffix(i)}",
                context=context,
                answer=answer,
                title=f"title{alpha_suffix(i % 5)}",
            )
        )
    return Corpus(split=split, records=tuple(records))


@pytest.fixture
def english_corpus_50() -> Corpus:
    return build_english_corpus(50)


@pytest.fixture
def golden_squad_bytes() -> bytes:
    return (DATA_DIR / "golden_squad_v11.json").read_bytes()
