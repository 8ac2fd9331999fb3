"""transquad: build translated SQuAD-format QA datasets and evaluate predictions."""

from .alignment import (
    AlignmentCandidate,
    AlignmentOutcome,
    align_corpus,
    find_occurrences,
    realign,
    strip_trailing_period,
)
from .corpus import (
    AnswerSpan,
    Corpus,
    QaRecord,
    StatsReport,
    ValidationReport,
    collapse_answers,
    compute_stats,
    load_corpus,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    validate_spans,
)
from .evaluation import (
    EmbeddingProvider,
    EvalReport,
    TableEmbeddingProvider,
    bert_score,
    evaluate_predictions,
    exact_match,
    normalize,
    token_f1,
)
from .filtering import (
    FilterConfig,
    RejectionEntry,
    RejectionLog,
    filter_corpus,
    non_latin_letter_ratio,
)
from .pipeline import (
    PipelineConfig,
    PipelineRunSummary,
    load_config,
    run_corpus_pipeline,
    run_pipeline,
)
from .script_tools import (
    Script,
    TokenScript,
    classify_tokens,
    localize_digits,
    transliterate_residuals,
)
from .translation import (
    DictionaryEngine,
    IdentityEngine,
    TranslationCache,
    TranslationRequest,
    translate_batch,
)

__version__ = "0.1.0"
