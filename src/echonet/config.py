"""Pipeline configuration: file form and validation."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .communities import RULES
from .records import DEFAULT_KEYWORDS


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
        if not isinstance(data, dict):
            raise ValueError(f"a config file must hold a JSON object, not {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "keywords" in data:
            # tuple() of a string would split it into letters
            if not isinstance(data["keywords"], list):
                raise ValueError("keywords: must be a list of strings")
            data = {**data, "keywords": tuple(data["keywords"])}
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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


def _misleading_keyword(term: str) -> bool:
    """A blank term is a substring of nearly every text, so it keeps nearly
    every record; a '#' term whose tag is empty or holds whitespace or a '#'
    equals no hashtag a record carries, so it keeps none."""
    if term.startswith("#"):
        tag = term[1:]
        return not tag or "#" in tag or any(c.isspace() for c in tag)
    return not term.strip()


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
    elif any(map(_misleading_keyword, config.keywords)):
        errors.append("keywords: a term may not be blank, nor a '#' not followed by one "
                      "hashtag token")
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
    if config.rule not in RULES:
        errors.append(f"rule: must be one of {', '.join(RULES)}")
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
    if config.seed < 0:
        errors.append("seed: must be >= 0")
    if config.top_n_keywords < 1:
        errors.append("top_n_keywords: must be >= 1")
    if config.top_n_terms < 1:
        errors.append("top_n_terms: must be >= 1")
    if config.threads < 1:
        errors.append("threads: must be >= 1")
    return errors
