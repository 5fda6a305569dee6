"""statetrack benchmark: training sessions driven through the public CLI.

    python3 perfbench/run.py --workload train-semi --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced

A workload is a closed loop of one caller running sessions until `--seconds`
would be exceeded (at least one session).  A session is one `statetrack
train` followed by `PREDICTS_PER_SESSION` `statetrack predict` runs over the
long paragraphs, each issued only after the previous command returned, all
in this interpreter through `statetrack.cli.main`.  Every command's output is
checked (a session's later predictions must equal its first, fully checked
ones byte for byte); a failed check or a non-zero exit counts that command as
failed.

With `--trace 0` the last stdout line holds the end-to-end metrics, timings
scaled by the run's host slowdown (see hostspeed.py); with
`--trace 1` the package's functions are wrapped (see tracer.py) and it holds
the per-layer metrics.  Each run also writes a result file with provenance
and the input cell distributions under `.perfbench/results/`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

HELD_OUT_SEED = 9001
SETUP_REPEATS = 5  # input builds before the loop and after every session
# enough predicts per session that their time window outlasts a few-second slow spell
# of a shared host, so the median over them does not hinge on one spell
PREDICTS_PER_SESSION = 20
CHECKED_PARAGRAPHS = 2
MODEL_FLAGS = ["--lr", "0.5", "--hidden", "8", "--emb-dim", "16", "--seed", "1"]

WORKLOADS = {
    # the paper's semi-supervised setting: a third of the labels, demoted paragraphs
    # kept as unlabeled members, default adaptive threshold
    "train-semi": {"epochs": 45, "flags": ["--label-fraction", "0.33", "--use-unlabeled"]},
    # full labels with the consistency term off: 30 single-paragraph batches per epoch
    "train-supervised": {"epochs": 20, "flags": ["--no-consistency"]},
}

END_TO_END_UNITS = {
    "setup_s": "s", "epoch_s": "s", "predict_paragraphs_per_s": "1/s",
    "dev_f1": "ratio", "dev_consistency": "%", "peak_rss_mb": "MB",
}


class EpochCuts(logging.Handler):
    """Cuts a train command at every per-epoch line the training loop logs.

    At each cut the host reference runs; `cuts` holds (time the epoch ended,
    reference slowdown, time the next epoch resumed).
    """

    def __init__(self, reference):
        super().__init__(logging.INFO)
        self.reference = reference
        self.cuts: list[tuple[float, float, float]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("epoch "):
            end = time.perf_counter()
            slowdown = self.reference.sample()
            self.cuts.append((end, slowdown, time.perf_counter()))


class Runner:
    """Runs CLI commands in this interpreter and keeps their timings and outcomes."""

    def __init__(self, tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def command(self, argv: list[str]) -> tuple[int | None, list[tuple[float, float]]]:
        """Exit code and the command's wall time in pieces, each with its host slowdown.

        A train command is cut at each logged epoch end, where the host
        reference runs; its time there is left out of the pieces.
        """
        from statetrack import cli
        self.attempted += 1
        before = self.reference.sample()
        epochs = EpochCuts(self.reference)
        logging.getLogger("statetrack.training").addHandler(epochs)
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # the CLI must not raise: count it and keep going
            traceback.print_exc()
            code = None
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = False
        logging.getLogger("statetrack.training").removeHandler(epochs)
        after = self.reference.sample()
        starts = [start] + [resumed for _, _, resumed in epochs.cuts]
        ends = [ended for ended, _, _ in epochs.cuts] + [end]
        slowdowns = [before] + [slowdown for _, slowdown, _ in epochs.cuts] + [after]
        return code, [(e - s, (slowdowns[i] + slowdowns[i + 1]) / 2)
                      for i, (s, e) in enumerate(zip(starts, ends))]

    def record(self, problems: list[str]) -> bool:
        if problems:
            self.failed += 1
            self.problems.update(problems)
        return not problems


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_train(code, report_path: Path, checkpoint: Path, epochs: int,
                first_report: dict | None) -> tuple[list[str], dict | None, object]:
    """Problems found, the report, and the reloaded checkpoint (None unless all is well)."""
    from statetrack import model
    if code != 0:
        return [f"train exit code {code}"], None, None
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"train report unreadable: {exc}"], None, None
    problems = []
    log = report.get("epochs") or []
    if [e.get("epoch") for e in log] != list(range(1, epochs + 1)):
        problems.append("train report does not list every epoch")
    for e in log:
        if not all(_finite(e.get(k)) for k in ("mean_sup_loss", "mean_con_loss",
                                              "dev_f1", "dev_consistency")):
            problems.append(f"train report epoch {e.get('epoch')} has a non-finite value")
            break
    if not _finite(report.get("best_dev_f1")) or report.get("best_epoch") not in range(1, epochs + 1):
        problems.append("train report has no best dev epoch")
    params = None
    try:
        params = model.load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        problems.append(f"checkpoint does not reload: {exc}")
    if first_report is not None and report != first_report:
        problems.append("train report differs from the first session's")
    return problems, report, None if problems else params


def check_predict(code, out: Path, inputs_examples, params, sample: list[int]) -> list[str]:
    import numpy as np
    from statetrack import corpus, evaluation, model
    if code != 0:
        return [f"predict exit code {code}"]
    try:
        raw = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()
               if line.strip()]
        got = corpus.load_examples(out)
    except (OSError, ValueError) as exc:
        return [f"predictions do not reload: {exc}"]
    if [ex.id for ex in got] != [ex.id for ex in inputs_examples]:
        return ["prediction ids differ from the input's"]
    for ex, src in zip(got, inputs_examples):
        if ex.gold is None or ex.gold.shape != (src.n_steps, src.n_entities):
            return [f"prediction grid of {ex.id} has the wrong shape"]
    for obj, ex in zip(raw, got):
        want = {ent.name: sorted(c.name for c in evaluation.summary_set(ex.gold, j))
                for j, ent in enumerate(ex.entities)}
        if obj.get("summary") != want:
            return [f"summary of {ex.id} does not match its labels"]
    for i in sample:
        want = evaluation.discretize(model.predict_grid(params, inputs_examples[i])).labels
        if not np.array_equal(got[i].gold.labels, want):
            return [f"labels of {got[i].id} differ from an in-process recomputation"]
    return []


def epoch_seconds(sessions: list[list[float]], epochs: int) -> float:
    """Train wall time per epoch, robust to a slow spell in one session.

    Each session's time comes in pieces cut at its logged epoch ends; the
    median of each piece across sessions is summed.  Without one cut per
    epoch the whole times are used.
    """
    if any(len(pieces) != epochs + 1 for pieces in sessions):
        return statistics.median(sum(pieces) for pieces in sessions) / epochs
    return sum(statistics.median(piece) for piece in zip(*sessions)) / epochs


def scaled_timings(setup: list, train: list, predict: list, paragraphs: int,
                   epochs: int, scale: bool) -> dict:
    """setup_s, epoch_s and predict_paragraphs_per_s from (seconds, slowdown) pieces.

    With `scale`, every piece is divided by its host slowdown first.
    """
    def sec(piece):
        return piece[0] / piece[1] if scale else piece[0]

    out = {"setup_s": statistics.median(sec(p) for p in setup)}
    if train:
        out["epoch_s"] = epoch_seconds([[sec(p) for p in pieces] for pieces in train], epochs)
    if predict:
        out["predict_paragraphs_per_s"] = statistics.median(paragraphs / sec(p) for p in predict)
    return out


def run_sessions(spec: dict, paths: dict, seed: int, seconds: float, tracer, reference,
                 between) -> dict:
    """The closed loop: sessions of train + predicts until the time budget is spent.

    `between()` runs after every session, outside the command timings.
    """
    import numpy as np
    from statetrack import corpus
    out_dir = paths["train"].parent
    checkpoint, report_path = out_dir / "checkpoint.json", out_dir / "report.json"
    predictions = out_dir / "predictions.jsonl"
    epochs = spec["epochs"]
    train_argv = ["train", "--train", paths["train"], "--dev", paths["dev"],
                  "--checkpoint", checkpoint, "--report", report_path,
                  "--epochs", str(epochs), *MODEL_FLAGS, *spec["flags"]]
    predict_argv = ["predict", checkpoint, paths["long"], "--out", predictions]
    long_examples = corpus.load_examples(paths["long"])
    rng = np.random.default_rng(seed)
    sample = sorted(int(i) for i in rng.choice(len(long_examples), CHECKED_PARAGRAPHS,
                                               replace=False))

    runner = Runner(tracer, reference)
    train_pieces, predict_pieces, session_walls = [], [], []
    first_report = None
    start = time.perf_counter()
    while not session_walls or (time.perf_counter() - start
                                + statistics.fmean(session_walls) <= seconds):
        session_start = time.perf_counter()
        code, pieces = runner.command(train_argv)
        problems, report, params = check_train(code, report_path, checkpoint, epochs,
                                               first_report)
        if runner.record(problems):
            train_pieces.append(pieces)
            first_report = first_report or report
        first_output = None  # the session's first checked predictions
        for _ in range(PREDICTS_PER_SESSION):
            code, pieces = runner.command(predict_argv)
            if params is None:
                problems = ["no checkpoint to predict with"]
            elif first_output is not None:
                problems = ([] if code == 0 and predictions.read_bytes() == first_output
                            else ["predictions differ from the session's first"])
            else:
                problems = check_predict(code, predictions, long_examples, params, sample)
                first_output = None if problems else predictions.read_bytes()
            if runner.record(problems):
                predict_pieces.extend(pieces)
        between()
        session_walls.append(time.perf_counter() - session_start)

    result = {"sessions": len(session_walls), "attempted": runner.attempted,
              "failed": runner.failed, "problems": dict(runner.problems),
              "epochs": epochs, "train": train_pieces, "predict": predict_pieces,
              "paragraphs": len(long_examples)}
    if first_report is not None:
        best = first_report["best_epoch"]
        result["dev_f1"] = first_report["best_dev_f1"]
        result["dev_consistency"] = first_report["epochs"][best - 1]["dev_consistency"]
    return result


def layer_metrics(tracer, sessions: int, epochs: int, cells_by_id: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced run, per session."""
    from tracer import KNOWN_OPS, percentile
    t = tracer

    def total(name, command=None):
        return sum(t.durations(name, command)) / sessions

    def calls(name):
        return len(t.durations(name)) / sessions

    backward = t.durations("autodiff.ComputationTape.backward")
    nodes = sum(t.tape_nodes)
    encode = t.durations("model.encode")
    predict_ms = [d * 1e3 for d in t.durations("model.predict_grid", "predict")]
    predicted = [cells_by_id[s[4]] for s in t.spans
                 if s[0] == "model.predict_grid" and s[5] == "predict" and s[4] in cells_by_id]
    steps = [wall for _, wall in t.batches]
    engaged_steps = [wall for engaged, wall in t.batches if engaged]
    m = {
        "autodiff.backward_s": (total("autodiff.ComputationTape.backward"), "s"),
        "autodiff.backward_calls": (calls("autodiff.ComputationTape.backward"), "count"),
        "autodiff.backward_us_per_node": (1e6 * sum(backward) / nodes if nodes else 0.0, "us"),
        "autodiff.tape_nodes_per_batch.p50": (percentile(t.tape_nodes, 50), "count"),
        "autodiff.tape_nodes_per_batch.max": (max(t.tape_nodes, default=0), "count"),
        "autodiff.nodes_per_epoch": (nodes / (sessions * epochs), "count"),
    }
    for op in KNOWN_OPS:
        m[f"autodiff.nodes.{op}"] = (t.census[op] / sessions, "count")
    m["autodiff.nodes.other"] = (
        sum(n for op, n in t.census.items() if op not in KNOWN_OPS) / sessions, "count")
    m.update({
        "model.encode_s": (total("model.encode"), "s"),
        "model.encode_calls": (calls("model.encode"), "count"),
        "model.encode_us_per_call": (1e6 * sum(encode) / len(encode) if encode else 0.0, "us"),
        "model.decode_s": (total("model.decode"), "s"),
        "model.grid_distributions_s": (total("model.grid_distributions"), "s"),
        "model.predict_grid_s": (total("model.predict_grid"), "s"),
        "model.predict_grid_ms.p50": (percentile(predict_ms, 50), "ms"),
        "model.predict_grid_ms.p90": (percentile(predict_ms, 90), "ms"),
        "model.cells_per_paragraph": (statistics.fmean(predicted) if predicted else 0.0, "count"),
        "model.load_checkpoint_s": (total("model.load_checkpoint"), "s"),
        "model.save_checkpoint_s": (total("model.save_checkpoint"), "s"),
        "model.params_copy_s": (total("model.ModelParams.copy"), "s"),
        "training.batch_loss_s": (total("training.batch_loss"), "s"),
        "training.batch_loss_self_s": (
            t.time_without_children("training.batch_loss", "model.grid_distributions")
            / sessions, "s"),
        "training.step_ms.p50": (1e3 * percentile(steps, 50), "ms"),
        "training.step_ms.p90": (1e3 * percentile(steps, 90), "ms"),
        "training.sgd_step_s": (total("training._sgd_step"), "s"),
        "training.batches": (len(steps) / sessions, "count"),
        "training.consistency_batch_share": (
            len(engaged_steps) / len(steps) if steps else 0.0, "ratio"),
        "training.consistency_time_share": (
            sum(engaged_steps) / sum(steps) if steps else 0.0, "ratio"),
        "training.dev_eval_s": (total("training._evaluate_split"), "s"),
        "evaluation.discretize_s": (total("evaluation.discretize"), "s"),
        "evaluation.score_corpus_s": (total("evaluation.score_corpus"), "s"),
        "evaluation.consistency_score_s": (total("evaluation.consistency_score"), "s"),
        "evaluation.summary_set_s": (total("evaluation.summary_set"), "s"),
        "corpus.load_s": (total("corpus.load_examples"), "s"),
        "corpus.paragraphs_loaded": (t.paragraphs_loaded / sessions, "count"),
        "corpus.example_to_json_s": (total("corpus.example_to_json"), "s"),
        "corpus.shared_entities_s": (total("corpus.shared_entities"), "s"),
        "cli.self_s": (sum(t.self_time(n) for n in ("cli.main", "cli.cmd_train",
                                                    "cli.cmd_predict")) / sessions, "s"),
    })
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}


def cell_distribution(cells: list[int]) -> dict:
    return {"paragraphs": len(cells), "mean": statistics.fmean(cells),
            "min": min(cells), "max": max(cells),
            "histogram": {str(k): v for k, v in sorted(Counter(cells).items())}}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_commit": git_commit(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "statetrack" / "__init__.py").is_file():
        print(f"perfbench: no statetrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import inputs
    from hostspeed import HostReference
    from tracer import Tracer

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    setup_pieces = []
    reference = HostReference()

    def set_up(directory: Path) -> dict:
        for _ in range(SETUP_REPEATS):
            before = reference.sample()
            start = time.perf_counter()
            built = inputs.build(directory, seed)
            took = time.perf_counter() - start
            setup_pieces.append((took, (before + reference.sample()) / 2))
        return built

    built = set_up(work / "inputs")

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        outcome = run_sessions(WORKLOADS[name], built["paths"], seed, seconds, tracer,
                               reference, between=lambda: set_up(work / "setup"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not outcome["train"] or not outcome["predict"]:
        print(f"perfbench: no command succeeded: {outcome['problems']}", file=sys.stderr)
        return 1

    pieces = (setup_pieces, outcome["train"], outcome["predict"], outcome["paragraphs"],
              outcome["epochs"])
    timings = scaled_timings(*pieces, scale=True)
    unscaled = scaled_timings(*pieces, scale=False)
    slowdown = reference.median_slowdown()
    if trace:
        cells_by_id = dict(zip(built["ids"]["long"], built["cells"]["long"]))
        metrics = layer_metrics(tracer, outcome["sessions"], outcome["epochs"], cells_by_id)
    else:
        values = {**timings, "dev_f1": outcome["dev_f1"],
                  "dev_consistency": outcome["dev_consistency"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END_UNITS.items()}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}"
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "sessions": outcome["sessions"], "problems": outcome["problems"],
        "provenance": provenance(seed), "timings": timings, "unscaled_timings": unscaled,
        "host_slowdown": slowdown, "reference_samples": len(reference.samples),
        "input_cells_per_paragraph": {k: cell_distribution(v) for k, v in built["cells"].items()},
        "metrics": metrics,
    }
    if trace:
        record["absent"] = tracer.absent
        record["op_census"] = dict(sorted(tracer.census.items()))
        untraced = results / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["timings"]
            record["tracing_overhead"] = {k: timings[k] - base[k] for k in timings if k in base}
        tracer.write_spans(results / f"{stem}-spans.jsonl")
    (results / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {name} seed {seed} trace {int(trace)}: {outcome['sessions']} sessions, "
          f"{outcome['attempted']} commands, {outcome['failed']} failed")
    print(f"# host slowdown {slowdown:.4f}; unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    for k, v in outcome["problems"].items():
        print(f"# failed check x{v}: {k}")
    if trace and tracer.absent:
        print("# absent: " + " ".join(tracer.absent))
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh interpreter, untraced then traced; prints both and the overhead."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, m in result["metrics"].items():
                total["metrics"][f"{name}.{k}"] = m
        record = json.loads((WORK / "results" / f"{name}-seed{seed}-trace1.json").read_text())
        for k, v in record.get("tracing_overhead", {}).items():
            print(f"# tracing overhead {name} {k}: {v:+.6g}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this interpreter (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed for the inputs")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time budget for the closed loop (at least one session runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
