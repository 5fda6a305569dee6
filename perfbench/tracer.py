"""Spans and counts recorded around the package's public functions.

`Tracer.install()` replaces each target function with a wrapper at its
module attribute, in every `statetrack` module that binds the same function
object (so `from .corpus import shared_entities` callers are traced too), and
`Tracer.uninstall()` restores the originals.  A target that no longer exists
is recorded in `absent` instead of failing, so the tracer survives refactors
that delete or rename functions.

A span is `(name, start, end, parent, tag, command)`: `parent` indexes the
enclosing span (-1 at the root), `tag` is the paragraph id or batch number
the call works on, and `command` the CLI command it ran under.  Spans stay in
memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

# "<module>.<function>" or "<module>.<Class>.<method>"; the module names the layer
TARGETS = (
    "autodiff.ComputationTape.backward", "corpus.load_examples", "corpus.example_to_json",
    "corpus.shared_entities", "model.encode", "model.decode", "model.grid_distributions",
    "model.predict_grid", "model.load_checkpoint", "model.save_checkpoint",
    "model.ModelParams.copy", "training.train", "training.batch_loss", "training._sgd_step",
    "training._evaluate_split", "evaluation.discretize", "evaluation.score_corpus",
    "evaluation.consistency_score", "evaluation.summary_set", "cli.main", "cli.cmd_train",
    "cli.cmd_predict",
)

# every op autodiff records at this version; anything else counts as "other"
KNOWN_OPS = ("add", "mul", "scale", "tanh", "sigmoid", "matmul", "matvec", "matvec_t",
             "dot", "concat", "narrow", "reshape", "total", "mean", "softmax", "mse", "nll")

_COMMANDS = {"cli.cmd_train": "train", "cli.cmd_predict": "predict"}


def op_name(backward_fn) -> str:
    """The autodiff op that recorded a tape node, from its backward closure's name."""
    qualname = getattr(backward_fn, "__qualname__", type(backward_fn).__name__)
    return qualname.split(".<locals>", 1)[0]


def _resolve(target: str):
    """(owner, attribute, function) for a target, or None if it no longer exists."""
    module_name, _, rest = target.partition(".")
    try:
        owner = importlib.import_module(f"statetrack.{module_name}")
    except ImportError:
        return None
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.absent: list[str] = []
        self.active = False
        self.census: Counter = Counter()
        self.tape_nodes: list[int] = []
        self.paragraphs_loaded = 0
        self.batches: list[tuple[bool, float]] = []  # (consistency engaged, step seconds)
        self._stack: list[int] = []
        self._command: str | None = None
        self._batch = 0
        self._batch_start = 0.0
        self._batch_engaged = False
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("statetrack.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "statetrack" or name.startswith("statetrack.")]
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(target, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        before = getattr(self, "_before_" + name.rsplit(".", 1)[1].lstrip("_"), None)
        after = getattr(self, "_after_" + name.rsplit(".", 1)[1].lstrip("_"), None)
        command = _COMMANDS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if command is not None:
                tracer._command = command
            if before is not None:
                before(args)
            parent = tracer._stack[-1] if tracer._stack else -1
            tag = tracer._tag(args)
            if tag is None and parent >= 0:
                tag = tracer.spans[parent][4]
            index = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, parent, tag, tracer._command])
            tracer.child_time.append(0.0)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = tracer.spans[index]
                span[1], span[2] = start, end
                if parent >= 0:
                    tracer.child_time[parent] += end - start
            if after is not None:
                after(args, result, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tag(self, args):
        """The paragraph id or batch number a call works on, if any argument names one."""
        for a in args:
            if hasattr(a, "steps") and hasattr(a, "id"):
                return a.id
            if hasattr(a, "primary_index"):
                return f"batch:{self._batch}"
        return None

    def _before_backward(self, args) -> None:
        tape = args[0]
        nodes = getattr(tape, "nodes", ())
        self.tape_nodes.append(len(nodes))
        self.census.update(op_name(node.backward_fn) for node in nodes)

    def _before_batch_loss(self, args) -> None:
        self._batch += 1
        self._batch_start = time.perf_counter()

    def _after_batch_loss(self, args, result, end) -> None:
        cfg = args[2] if len(args) > 2 else None
        stats = result[1] if isinstance(result, tuple) and len(result) > 1 else None
        self._batch_engaged = bool(getattr(cfg, "consistency_enabled", False)
                                   and not getattr(stats, "switched", True))

    def _after_sgd_step(self, args, result, end) -> None:
        self.batches.append((self._batch_engaged, end - self._batch_start))

    def _after_load_examples(self, args, result, end) -> None:
        self.paragraphs_loaded += len(result)

    def _before_main(self, args) -> None:
        self._command = None

    # -- summaries ----------------------------------------------------------

    def durations(self, name: str, command: str | None = None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (command is None or s[5] == command)]

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - self.child_time[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def time_without_children(self, name: str, child: str) -> float:
        """Total time of `name` spans minus the time of their direct `child` spans."""
        total = sum(s[2] - s[1] for s in self.spans if s[0] == name)
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        return total - sum(s[2] - s[1] for s in self.spans
                           if s[0] == child and s[3] in parents)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag, command in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag,
                                     "command": command}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
