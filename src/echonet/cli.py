"""Command-line entry points.

Each stage of the pipeline's stage table is a subcommand, plus `run` (every
stage) and `report`. A stage's subcommand takes a flag for each config field
the stage reads and one for each of its files that may live outside --outdir.
Exit codes: 0 success, 2 configuration error, 3 input error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .communities import RULES
from .config import PipelineConfig, validate_config
from .pipeline import TABLE, Stage, StageError, render_report, run_pipeline, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_STAGE = 4


class ConfigError(Exception):
    pass


def comma_list(text: str) -> tuple[str, ...]:
    return tuple(t for t in text.split(",") if t)


def number_or_auto(text: str) -> float | str:
    return text if text == "auto" else float(text)


def _stoplist(text: str) -> str | None:
    # 'default' leaves the built-in list in place; 'none' reads an empty file
    return {"default": None, "none": os.devnull}.get(text, text)


# the flag for each config field; a subcommand takes those of its stage's fields
FIELD_FLAGS = {
    "outdir": ("--outdir", {"help": "output directory"}),
    "threads": ("--threads", {"type": int, "help": "worker count for parallel stages"}),
    "seed": ("--seed", {"type": int, "help": "base RNG seed"}),
    "resume": ("--resume", {"action": "store_true", "default": None,
                            "help": "reuse stages whose config, input and outputs are unchanged"}),
    "input": ("--input", {"help": "JSONL or CSV record file"}),
    "keywords": ("--keywords", {"type": comma_list, "help": "comma-separated filter terms"}),
    "tau": ("--tau", {"type": float, "help": "role threshold in (0, 1]"}),
    "min_weight": ("--min-weight", {"type": int}),
    "k": ("--k", {"type": int}),
    "rule": ("--rule", {"choices": RULES}),
    "k_min": ("--k-min", {"type": int}),
    "k_max": ("--k-max", {"type": int}),
    "max_cliques": ("--max-cliques", {"type": int}),
    "n_topics": ("--n-topics", {"type": int}),
    "top_n_keywords": ("--top-n", {"type": int}),
    "alpha": ("--alpha", {"type": number_or_auto, "help": "positive float or 'auto'"}),
    "beta": ("--beta", {"type": float}),
    "iterations": ("--iters", {"type": int}),
    "per_user_docs": ("--per-user", {"action": "store_true", "default": None}),
    "top_n_terms": ("--top-n", {"type": int}),
}
COMMON_FIELDS = ("outdir", "threads", "seed", "resume")
# --top-n sets a different field in topics and profiles, so `run` leaves it out
RUN_FIELDS = tuple(
    f for stage in TABLE.values() for f in stage.fields if FIELD_FLAGS[f][0] != "--top-n"
)

_REDIRECT_ARGS = {"--stoplist": {"type": _stoplist, "help": "'default', 'none', or a file path"}}


def _redirect_flags(stage: Stage) -> dict[str, list[str]]:
    """flag -> the templates of the files it points elsewhere"""
    flags: dict[str, list[str]] = {}
    for template, flag in {**stage.reads, **stage.writes}.items():
        if flag:
            flags.setdefault(flag, []).append(template)
    return flags


def _add_parser(sub, name: str, summary: str, fields=(), redirects=None) -> None:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="JSON config file; flags override it")
    for field in dict.fromkeys(COMMON_FIELDS + tuple(fields)):
        option, kwargs = FIELD_FLAGS[field]
        p.add_argument(option, dest=field, **kwargs)
    for flag, templates in (redirects or {}).items():
        names = " and ".join(templates)
        where = f"path of {names}" if len(templates) == 1 else f"directory holding {names}"
        p.add_argument(flag, **{"help": where, **_REDIRECT_ARGS.get(flag, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="echonet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in TABLE.values():
        _add_parser(sub, stage.name, stage.func.__doc__.split("\n")[0],
                    stage.fields, _redirect_flags(stage))
    _add_parser(sub, "run", "Run every stage and write the manifest.", RUN_FIELDS)
    _add_parser(sub, "report", "Summarize an existing bundle.")
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        try:
            config = PipelineConfig.from_file(args.config)
        except FileNotFoundError as exc:
            raise ConfigError(str(exc)) from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
    else:
        config = PipelineConfig()
    for field in dataclasses.fields(config):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    errors = validate_config(config)
    if errors:
        raise ConfigError("; ".join(errors))
    return config


def _redirects(stage: Stage, args: argparse.Namespace) -> dict[str, str]:
    redirects = {}
    for flag, templates in _redirect_flags(stage).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            for template in templates:
                redirects[template] = os.path.join(value, template) if len(templates) > 1 else value
    return redirects


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "run":
            manifest = run_pipeline(config)
            print(f"bundle complete: {len(manifest['files'])} files in {config.outdir}")
        elif args.command == "report":
            print(render_report(config.outdir))
        else:
            stage = TABLE[args.command]
            for path in run_stage(stage.name, config, _redirects(stage, args)).values():
                print(f"wrote {path}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, (FileNotFoundError, IsADirectoryError, PermissionError)):
            return EXIT_INPUT
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
