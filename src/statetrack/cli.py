"""Command-line surface: train, eval, predict, gen.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  All outputs are UTF-8 JSON/JSONL.  Exit codes: 0 success, 1
usage/config error, 2 data validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import corpus, evaluation, model, training
from .corpus import CorpusError
from .training import NumericalError, TrainingConfig

logger = logging.getLogger("statetrack")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig(TrainingConfig):
    """Every setting of a `train` run; each field is a config-file key and a flag's dest."""

    train: str | None = None
    dev: str | None = None
    embeddings: str | None = None
    checkpoint: str = "checkpoint.json"
    report: str = "report.json"
    label_fraction: float = 1.0
    use_unlabeled: bool = False

    def validate(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            if float in kinds:
                kinds += (int,)
            if isinstance(value, bool) and bool not in kinds or not isinstance(value, kinds):
                raise ValueError(f"{f.name!r} must be {f.type}, got {value!r}")
        super().validate()
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label-fraction must lie in (0, 1]")
        if self.use_unlabeled and self.label_fraction == 1.0:
            raise ValueError("use-unlabeled needs a label-fraction below 1: "
                             "with every label kept no paragraph is demoted")


_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def _config_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A config file's object keyed by field name; a field set twice, by a
    repeated key or by a key and its alias, is an error, not a silent overwrite."""
    raw: dict[str, object] = {}
    for key, value in pairs:
        name = "lambda_weight" if key == "lambda" else key
        if name in raw:
            raise UsageError(f"config file: key {key!r} sets {name!r} a second time")
        raw[name] = value
    return raw


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_config_object)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config}: invalid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file {args.config}: not UTF-8: "
                             f"byte 0x{exc.object[exc.start]:02x}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        for name, value in raw.items():
            if name not in _FIELDS:
                raise UsageError(f"config file: unknown key {name!r}")
            setattr(cfg, name, value)
    for name in _FIELDS:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _load_scorable(path) -> list[corpus.TopicGroup]:
    """A corpus evaluation can score: not empty, with some gold labels."""
    groups = corpus.load_corpus(path)
    examples = corpus.flatten_groups(groups)
    if not examples:
        raise CorpusError(f"{path}: corpus is empty")
    if all(ex.gold is None for ex in examples):
        raise CorpusError(f"{path}: no gold labels to evaluate against")
    return groups


def _check_outputs(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Refuse an output that resolves to the same file as an input or another
    output of the command, which writing it would destroy."""
    taken = {os.path.realpath(path): name for name, path in inputs.items() if path}
    for name, path in outputs.items():
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise UsageError(f"{name} {path} is the same file as the {taken[real]}")
            taken[real] = name


def _write_json(path, payload: dict) -> None:
    with corpus.atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    if not cfg.train:
        raise UsageError("train corpus path is required (--train or config)")
    _check_outputs({"checkpoint": cfg.checkpoint, "report": cfg.report},
                   {"train corpus": cfg.train, "dev corpus": cfg.dev,
                    "embeddings": cfg.embeddings, "config file": args.config})
    groups = corpus.load_corpus(cfg.train)
    dev_groups = _load_scorable(cfg.dev) if cfg.dev else []
    demoted = 0
    if cfg.label_fraction < 1.0:
        groups, demoted = corpus.demote_labels(
            groups, cfg.label_fraction, seed=cfg.seed,
            reuse_unlabeled=cfg.use_unlabeled)
    embeddings = (corpus.EmbeddingTable.load(cfg.embeddings, cfg.embedding_dim)
                  if cfg.embeddings else None)
    result = training.train(groups, cfg, dev=dev_groups, embeddings=embeddings)

    model.save_checkpoint(result.params, cfg.checkpoint)
    report = {
        "config": {**dataclasses.asdict(cfg), "demoted_paragraphs": demoted},
        **result.report,
    }
    _write_json(cfg.report, report)
    logger.info("wrote checkpoint %s and report %s", cfg.checkpoint, cfg.report)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    params = model.load_checkpoint(args.checkpoint)
    metrics, consistency = training._evaluate_split(params, _load_scorable(args.corpus))
    payload = {**metrics.to_json(), **consistency.to_json()}
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    params = model.load_checkpoint(args.checkpoint)
    examples = corpus.load_examples(args.corpus)
    if not examples:
        raise CorpusError(f"{args.corpus}: corpus is empty")
    with corpus.atomic_open(args.out) as fh:
        for ex, grid in zip(examples, model.predict_grids(params, examples)):
            hard = evaluation.discretize(grid)
            obj = corpus.example_to_json(dataclasses.replace(ex, gold=hard))
            obj["summary"] = {
                ent.name: sorted(c.name for c in evaluation.summary_set(hard, j))
                for j, ent in enumerate(ex.entities)}
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")
    logger.info("wrote predictions for %d paragraphs to %s", len(examples), args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    sizes = {"train": args.train_topics, "dev": args.dev_topics, "test": args.test_topics}
    for split, count in sizes.items():
        if count < 0:
            raise UsageError(f"--{split}-topics must be >= 0, got {count}")
    total = sum(sizes.values())
    if total < 1:
        raise UsageError("at least one topic across the three splits is required")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.paragraphs < 1:
        raise UsageError(f"--paragraphs must be >= 1, got {args.paragraphs}")
    if not 0.0 <= args.noise <= 1.0:  # also rejects NaN
        raise UsageError(f"--noise must lie in [0, 1], got {args.noise}")
    groups = corpus.generate_synthetic(seed=args.seed, topics=total,
                                       paragraphs_per_topic=args.paragraphs,
                                       noise=args.noise)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    offset = 0
    for split, count in sizes.items():
        split_groups = groups[offset:offset + count]
        offset += count
        corpus.save_examples(out_dir / f"{split}.jsonl", corpus.flatten_groups(split_groups))
        logger.info("wrote %s split: %d topics", split, count)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--train", help="training corpus (JSONL)")
    p.add_argument("--dev", help="dev corpus for model selection (JSONL)")
    p.add_argument("--embeddings", help="embedding text file (token + decimals per line)")
    p.add_argument("--checkpoint", help="output checkpoint path")
    p.add_argument("--report", help="output training report path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--label-fraction", dest="label_fraction", type=float, default=None,
                   help="fraction of labeled paragraphs kept per topic")
    p.add_argument("--use-unlabeled", dest="use_unlabeled", action="store_true", default=None,
                   help="keep demoted paragraphs as unlabeled group members")
    p.add_argument("--no-consistency", dest="consistency_enabled", action="store_false",
                   default=None, help="train the purely supervised arm (lambda = 1)")
    p.add_argument("--lambda", dest="lambda_weight", type=float, default=None,
                   help="supervised weight in the combined loss")
    p.add_argument("--sup-threshold", dest="sup_threshold", type=float, default=None,
                   help="supervised loss above this skips the consistency term")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--hidden", dest="hidden_size", type=int, default=None,
                   help="total hidden size (even)")
    p.add_argument("--emb-dim", dest="embedding_dim", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statetrack",
        description="Track entity state changes in procedural text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + report")
    _add_common_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("corpus")
    p_eval.add_argument("--out", help="also write the metrics JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="write per-paragraph predictions as JSONL")
    p_pred.add_argument("checkpoint")
    p_pred.add_argument("corpus")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus with disjoint splits")
    p_gen.add_argument("--out-dir", dest="out_dir", default="data")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--train-topics", dest="train_topics", type=int, default=8)
    p_gen.add_argument("--dev-topics", dest="dev_topics", type=int, default=2)
    p_gen.add_argument("--test-topics", dest="test_topics", type=int, default=2)
    p_gen.add_argument("--paragraphs", type=int, default=3)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
