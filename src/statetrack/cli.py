"""Command-line surface: train, eval, predict, gen.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  All outputs are UTF-8 JSON/JSONL.  Exit codes: 0 success, 1
usage/config error or out of memory, 2 data validation error, 3 numerical
failure, 130 interrupted (128 + SIGINT).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
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
EXIT_INTERRUPT = 130


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
        """Each field's own rules; `_build_run_config` checks the rule between fields."""
        super().validate()
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label-fraction must lie in (0, 1]")


_TYPES = typing.get_type_hints(RunConfig)


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            data = Path(args.config).read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        where = f"config file {args.config}"
        raw = corpus.read_json(data, where, UsageError, aliases={"lambda": "lambda_weight"})
        # checked before the flags are merged in, so that the error names the file
        name = corpus.mismatch(raw, {key: _TYPES[key] for key in raw if key in _TYPES})
        if name is not None and name not in _TYPES:
            raise UsageError(f"{where}: unknown key {corpus.echo(repr(name))}")
        if name is not None:
            kind = next(f.type for f in dataclasses.fields(RunConfig) if f.name == name)
            raise UsageError(
                f"{where}: {name!r} must be {kind}, got {corpus.echo(repr(raw[name]))}")
        for name, value in raw.items():
            setattr(cfg, name, value)
        try:
            cfg.validate()  # the defaults pass, so a failing rule is the file's
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    for name in _TYPES:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.use_unlabeled and cfg.label_fraction == 1.0:
        raise UsageError("use-unlabeled needs a label-fraction below 1: "
                         "with every label kept no paragraph is demoted")
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
    """Refuse an empty path (None is a path not given); then an output that is a
    directory, lies in a missing directory, or resolves to the same file as an
    input or another output of the command, which writing it would destroy."""
    for name, path in [*inputs.items(), *outputs.items()]:
        if path == "":
            raise UsageError(f"{name} path is empty")
    taken = {os.path.realpath(path): name for name, path in inputs.items() if path is not None}
    for name, path in outputs.items():
        if path is not None:
            real = os.path.realpath(path)
            if real in taken:
                raise UsageError(f"{name} {path} is the same file as the {taken[real]}")
            if os.path.isdir(real):
                raise UsageError(f"{name} {path} is a directory")
            if not os.path.isdir(os.path.dirname(real)):
                raise UsageError(f"{name} {path}: no such directory")
            taken[real] = name


@contextlib.contextmanager
def _naming(checkpoint: str):
    """Name the checkpoint in a numerical failure of the model it holds."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"checkpoint {checkpoint}: {exc}") from exc


def _write_json(path, payload: dict) -> None:
    with corpus.atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_train(args: argparse.Namespace) -> None:
    cfg = _build_run_config(args)
    _check_outputs({"checkpoint": cfg.checkpoint, "report": cfg.report},
                   {"train corpus": cfg.train, "dev corpus": cfg.dev,
                    "embeddings": cfg.embeddings, "config file": args.config})
    if cfg.train is None:
        raise UsageError("train corpus path is required (--train or config)")
    groups = corpus.load_corpus(cfg.train)
    dev_groups = _load_scorable(cfg.dev) if cfg.dev is not None else []
    demoted = 0
    if cfg.label_fraction < 1.0:
        groups, demoted = corpus.demote_labels(
            groups, cfg.label_fraction, seed=cfg.seed,
            reuse_unlabeled=cfg.use_unlabeled)
    embeddings = (corpus.EmbeddingTable.load(cfg.embeddings, cfg.embedding_dim)
                  if cfg.embeddings is not None else None)
    result = training.train(groups, cfg, dev=dev_groups, embeddings=embeddings)

    model.save_checkpoint(result.params, cfg.checkpoint)
    report = {
        "config": {**dataclasses.asdict(cfg), "demoted_paragraphs": demoted},
        **result.report,
    }
    _write_json(cfg.report, report)
    logger.info("wrote checkpoint %s and report %s", cfg.checkpoint, cfg.report)


def cmd_eval(args: argparse.Namespace) -> None:
    _check_outputs({"--out": args.out}, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    params = model.load_checkpoint(args.checkpoint)
    with _naming(args.checkpoint):
        metrics, consistency = training._evaluate_split(params, _load_scorable(args.corpus))
    payload = {**metrics.to_json(), **consistency.to_json()}
    print(json.dumps(payload, indent=2))
    if args.out is not None:
        _write_json(args.out, payload)


def cmd_predict(args: argparse.Namespace) -> None:
    _check_outputs({"--out": args.out}, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    params = model.load_checkpoint(args.checkpoint)
    examples = corpus.load_examples(args.corpus)
    if not examples:
        raise CorpusError(f"{args.corpus}: corpus is empty")
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with _naming(args.checkpoint), corpus.atomic_open(args.out) as fh:
        for chunk, dists in model.predict_chunks(params, examples):
            for ex, (labels, masks) in zip(chunk, evaluation.label_chunk(chunk, dists)):
                obj = corpus.example_to_json(ex, labels)
                obj["summary"] = {ent.name: evaluation.SUMMARY_NAMES[mask]
                                  for ent, mask in zip(ex.entities, masks)}
                fh.write(encode(obj))
                fh.write("\n")
    logger.info("wrote predictions for %d paragraphs to %s", len(examples), args.out)


def cmd_gen(args: argparse.Namespace) -> None:
    _check_outputs({}, {"--out-dir": args.out_dir})  # as an input: a directory, maybe not made yet
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
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file where a directory must be
        raise UsageError(f"--out-dir {args.out_dir}: {exc.strerror}") from exc
    paths = {split: out_dir / f"{split}.jsonl" for split in sizes}
    _check_outputs({f"{split} split": str(path) for split, path in paths.items()}, {})
    groups = corpus.generate_synthetic(seed=args.seed, topics=total,
                                       paragraphs_per_topic=args.paragraphs,
                                       noise=args.noise)
    offset = 0
    for split, count in sizes.items():
        split_groups = groups[offset:offset + count]
        offset += count
        corpus.save_examples(paths[split], corpus.flatten_groups(split_groups))
        logger.info("wrote %s split: %d topics", split, count)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: parsing does
    not change it, and an in-process caller running many commands would
    otherwise pay for building it every time."""
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
        args.func(args)
    except (ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, UsageError) else
                EXIT_NUMERIC if isinstance(exc, NumericalError) else EXIT_DATA)
    except MemoryError:
        print("error: out of memory; the model size (--hidden, --emb-dim, or a checkpoint's "
              "hidden_size and embedding_dim) or the input may be too large", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # an output being written is removed, the old file kept
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    return EXIT_OK
