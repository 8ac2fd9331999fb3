"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class TransquadError(Exception):
    """Base class for every error raised by this package."""


class MalformedDocumentError(TransquadError):
    """Input document violates the SQuAD v1.1 schema.

    ``path`` points at the offending node, e.g. ``data[3].paragraphs[0].qas[2]``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message} (at {path})" if path else message)
        self.path = path


class EncodingError(TransquadError, ValueError):
    """Input bytes are not valid UTF-8."""


class FieldError(TransquadError, ValueError):
    """A JSON record is not an object, lacks a key, or holds a value of the wrong type.

    ``field`` names the key, when there is one.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class InvalidCorpusError(TransquadError):
    """The pipeline's final corpus has span violations; ``write_dataset`` writes nothing."""


class EmptyAnswersError(TransquadError):
    """A record has no answers where at least one is required."""


class ConfigError(TransquadError):
    """Configuration problem (unreadable file, bad value, ...)."""


class ConfigParseError(ConfigError):
    """Config file could not be read or decoded."""


class ConfigValidationError(ConfigError, FieldError):
    """Config parsed but a field is missing, unknown, of the wrong type, or out of range."""


class EngineError(TransquadError):
    """Permanent translation-engine failure (e.g. unsupported language pair)."""


class TransientEngineError(EngineError):
    """Retryable engine failure; the gateway retries these with backoff."""


class EngineUnavailableError(TransquadError):
    """Engine kept failing transiently until the retry budget ran out."""


class CacheIOError(TransquadError):
    """Translation cache file could not be read or written."""


class TransliterationError(TransquadError):
    """Transliterator failed; ``tokens`` names the tokens it was given."""

    def __init__(self, message: str, tokens: tuple[str, ...] = ()):
        super().__init__(message)
        self.tokens = tokens


class EmbeddingError(TransquadError):
    """The embedding provider failed, or returned vectors that cannot be scored."""


class MissingEmbeddingError(EmbeddingError, LookupError):
    """A token to be scored has no vector in the embedding table."""


class PipelineError(TransquadError):
    """A pipeline stage failed; ``stage`` names it, __cause__ carries the reason."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
