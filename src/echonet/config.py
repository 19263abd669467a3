"""Pipeline configuration: file form, validation, semantic hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .records import DEFAULT_KEYWORDS

# fields that affect output bytes; everything else is execution plumbing
_HASH_EXCLUDED = {"outdir", "threads", "resume"}


@dataclass
class PipelineConfig:
    input: str = "tweets.jsonl"
    outdir: str = "out"
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    tau: float = 0.5
    min_weight: int = 1
    k: int = 9
    k_min: int = 3
    k_max: int = 12
    rule: str = "standard"
    max_cliques: int = 10_000_000
    n_topics: int = 8
    alpha: float | str = "auto"  # auto -> 50 / n_topics
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 42
    top_n_keywords: int = 10
    top_n_terms: int = 10
    per_user_docs: bool = False
    threads: int = 1
    resume: bool = False

    def resolved_alpha(self) -> float:
        if self.alpha == "auto":
            return 50.0 / self.n_topics
        return float(self.alpha)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["keywords"] = list(self.keywords)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "keywords" in data:
            data = dict(data)
            data["keywords"] = tuple(data["keywords"])
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def semantic_hash(self) -> str:
        payload = {k: v for k, v in self.to_dict().items() if k not in _HASH_EXCLUDED}
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


_DEFAULTS = PipelineConfig()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_field_type(name: str, value) -> bool:
    """True iff `value` has the type of the field's default (an int counts as a float)."""
    default = getattr(_DEFAULTS, name)
    if name == "alpha":
        return value == "auto" or _is_number(value)
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(isinstance(t, str) for t in value)
    return isinstance(value, type(default)) and not isinstance(value, bool)


def validate_config(config: PipelineConfig) -> list[str]:
    """Collect every precondition violation; empty list means valid."""
    errors = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _has_field_type(f.name, value):
            errors.append(f"{f.name}: wrong type {type(value).__name__}")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{f.name}: must be finite")
    if errors:
        return errors  # the range checks below assume finite, well-typed values
    if not config.keywords:
        errors.append("keywords: must be nonempty")
    if not 0 < config.tau <= 1:
        errors.append("tau: must be in (0, 1]")
    if config.min_weight < 1:
        errors.append("min_weight: must be >= 1")
    if config.k < 2:
        errors.append("k: must be >= 2")
    if config.k_min < 2:
        errors.append("k_min: must be >= 2")
    if config.k_min > config.k_max:
        errors.append("k_max: must be >= k_min")
    if config.rule not in ("standard", "loose"):
        errors.append("rule: must be 'standard' or 'loose'")
    if config.max_cliques < 1:
        errors.append("max_cliques: must be >= 1")
    if config.n_topics < 1:
        errors.append("n_topics: must be >= 1")
    if config.alpha != "auto" and config.alpha <= 0:
        errors.append("alpha: must be positive or 'auto'")
    if config.beta <= 0:
        errors.append("beta: must be positive")
    if config.iterations < 1:
        errors.append("iterations: must be >= 1")
    if config.top_n_keywords < 1:
        errors.append("top_n_keywords: must be >= 1")
    if config.top_n_terms < 1:
        errors.append("top_n_terms: must be >= 1")
    if config.threads < 1:
        errors.append("threads: must be >= 1")
    return errors
