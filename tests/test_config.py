import dataclasses
import json
import random
from pathlib import Path

import pytest

from echonet.cli import main
from echonet.config import PipelineConfig, validate_config
from echonet.pipeline import config_hash

FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl")


def test_default_config_valid():
    assert validate_config(PipelineConfig()) == []


def test_two_violations_named_by_field():
    config = PipelineConfig(tau=1.5, k_min=1)
    errors = validate_config(config)
    assert len(errors) == 2
    assert any(e.startswith("tau:") for e in errors)
    assert any(e.startswith("k_min:") for e in errors)


def test_file_round_trip(tmp_path):
    config = PipelineConfig(tau=0.7, k=5, keywords=("a", "#b"), alpha=0.3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert PipelineConfig.from_file(str(path)) == config


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"taau": 0.5})


def test_hash_changes_with_semantic_fields_only():
    base = PipelineConfig()
    assert config_hash(base) == config_hash(PipelineConfig())
    assert config_hash(dataclasses.replace(base, tau=0.6)) != config_hash(base)
    assert config_hash(dataclasses.replace(base, k=5)) != config_hash(base)
    assert config_hash(dataclasses.replace(base, seed=1)) != config_hash(base)
    # execution plumbing does not change output bytes
    assert config_hash(dataclasses.replace(base, threads=8)) == config_hash(base)
    assert config_hash(dataclasses.replace(base, resume=True)) == config_hash(base)
    assert config_hash(dataclasses.replace(base, outdir="elsewhere")) == config_hash(base)


def test_fuzzed_configs_match_stage_preconditions():
    rng = random.Random(42)
    for _ in range(300):
        config = PipelineConfig(
            tau=rng.choice([-0.2, 0.0, 0.3, 0.5, 1.0, 1.2]),
            min_weight=rng.choice([0, 1, 3]),
            k=rng.choice([1, 2, 9]),
            k_min=rng.choice([1, 2, 3, 8]),
            k_max=rng.choice([2, 5, 12]),
            rule=rng.choice(["standard", "loose", "weird"]),
            n_topics=rng.choice([0, 1, 8]),
            alpha=rng.choice(["auto", -1.0, 0.0, 0.5]),
            beta=rng.choice([-0.1, 0.0, 0.01]),
            iterations=rng.choice([0, 1, 100]),
            top_n_keywords=rng.choice([0, 1, 10]),
            top_n_terms=rng.choice([0, 1, 10]),
            max_cliques=rng.choice([0, 1, 1000]),
            threads=rng.choice([0, 1, 4]),
            seed=rng.choice([-1, 0, 42]),
        )
        # independent recomputation of the downstream preconditions
        valid = (
            0 < config.tau <= 1
            and config.min_weight >= 1
            and config.k >= 2
            and 2 <= config.k_min <= config.k_max
            and config.rule in ("standard", "loose")
            and config.n_topics >= 1
            and (config.alpha == "auto" or float(config.alpha) > 0)
            and config.beta > 0
            and config.iterations >= 1
            and config.top_n_keywords >= 1
            and config.top_n_terms >= 1
            and config.max_cliques >= 1
            and config.threads >= 1
            and config.seed >= 0
        )
        assert (validate_config(config) == []) == valid


def test_auto_alpha_resolution():
    config = PipelineConfig(n_topics=10, alpha="auto")
    assert config.resolved_alpha() == 5.0
    assert PipelineConfig(alpha=0.25).resolved_alpha() == 0.25


@pytest.mark.parametrize("term", ["", "#", " ", "#q anon", "##q"])
def test_a_keyword_that_is_empty_or_a_bare_hash_is_a_config_error(tmp_path, capsys, term):
    """"" is a substring of every text, so it would keep every record, and " "
    of nearly every text; a bare "#" is the empty hashtag, and a hashtag holds
    no whitespace or '#', so no record carries what those '#' terms name."""
    assert validate_config(PipelineConfig(keywords=("qanon", term))) == [
        "keywords: a term may not be blank, nor a '#' not followed by one hashtag token"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"keywords": [term]}))
    assert main(["ingest", "--config", str(path), "--input", FIXTURE,
                 "--outdir", str(tmp_path / "out")]) == 2
    assert "keywords:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
