"""Benchmark of fincat: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload hom-sweep --seed 7 --seconds 25 --trace 0

Set-up (a fresh import of every fincat module, the criterion-1 corpus and
functor corpus, and the workload's own inputs) runs several times and its
median is reported. Then the workload runs whole rounds of the same
operations until --seconds have passed, and at least two rounds; each
operation is timed on its own. In the first round every output is checked,
outside the timed region, against an independent computation; in later
rounds every output must equal the first round's.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). A fuller record goes to perfbench/results/. Exit
code 0 means every check passed, 1 that a check failed, 2 that the run could
not start (for example when the fincat sources are missing).
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("errors", "finset", "internal", "transfer", "ends", "limits",
           "naive", "corpus", "factorisation", "classifiers", "audit",
           "serialize", "cli")
END_TO_END = (("setup_s", "s", "lower"), ("run_s", "s", "lower"),
              ("op_p50_ms", "ms", "lower"), ("op_tail_ms", "ms", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("items_verified", "count", "higher"))
SETUP_REPEATS = 7
MIN_ROUNDS = 2
MIN_OPS_FOR_TAIL = 40
TAIL_BEYOND = 10


def fresh_import():
    """Import every fincat module anew; returns them by short name."""
    for name in [n for n in sys.modules if n == "fincat" or n.startswith("fincat.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"fincat.{name}")
                              for name in MODULES})


def set_up(workload, seed, tracer):
    """Import and generate every input SETUP_REPEATS times; keep the last."""
    times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        fc = fresh_import()
        if tracer is not None and rep == SETUP_REPEATS - 1:
            tracer.refused = (fc.errors.SizeBound,)
            tracer.install("fincat")
            tracer.phase = "setup"
        # set-up covers criterion 1's fixtures, the corpus and its functor
        # corpus, on every workload, so setup_s compares like with like
        corpus = fc.corpus.generate_corpus(fc.corpus.CorpusSpec())
        fc.corpus.generate_functor_corpus(corpus, seed=7)
        inputs = workload.prepare(fc, corpus, seed)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.phase = None
    return fc, inputs, times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    """Runs, times and checks the operations of one round.

    The first round (first=None) checks each output and records a digest of
    it; a later round compares each output's digest with the first round's.
    Outputs are not kept, so memory does not grow with the round's length.
    Checks run with the tracer paused and outside the timed region.
    """

    def __init__(self, workload, refused, first=None, tracer=None, phase=None):
        self.workload = workload
        self.refused = refused
        self.first = first
        self.tracer = tracer
        self.phase = phase
        self.times = {}
        self.failures = {}
        self.digests = {}
        self.items = 0
        self.problems = []
        self.peak_rss_mb = None

    def op(self, label, thunk, check=None):
        """Time one operation; return its output, or None if it was refused."""
        start = time.perf_counter()
        try:
            out = thunk()
        except self.refused as exc:
            self.times[label] = time.perf_counter() - start
            self.failures[label] = type(exc).__name__
            return None
        self.times[label] = time.perf_counter() - start
        self._untimed(self._record, label, out, check)
        return out

    def check(self, fn):
        """A check over several outputs; it runs in the first round only."""
        if self.first is None:
            self._untimed(self._run_check, fn)

    def finish(self):
        if self.first is not None:
            if self.failures != self.first.failures:
                self.problems.append("a later round failed other operations")
            if self.times.keys() != self.first.times.keys():
                self.problems.append("a later round ran other operations")
        self.peak_rss_mb = peak_rss_mb()

    def _untimed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.phase = None
        try:
            fn(*args)
        finally:
            if self.tracer is not None:
                self.tracer.phase = self.phase

    def _record(self, label, out, check):
        digest = hashlib.sha256(
            repr(self.workload.digest(label, out)).encode()).hexdigest()
        if self.first is None:
            self.digests[label] = digest
            if check is not None:
                self._run_check(lambda: check(out))
        elif self.first.digests.get(label) != digest:
            self.problems.append(f"output of {label} differs from the first round's")

    def _run_check(self, fn):
        try:
            self.items += fn()
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))


def run_rounds(fc, workload, inputs, seconds, tracer):
    """Whole rounds until `seconds` have passed and at least MIN_ROUNDS."""
    refused = (fc.errors.SizeBound,) if workload.refusable else ()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        phase = len(rounds)
        rnd = Round(workload, refused, rounds[0] if rounds else None, tracer, phase)
        if tracer is not None:
            tracer.phase = phase
        workload.run_round(fc, inputs, rnd)
        if tracer is not None:
            tracer.phase = None
        rnd.finish()
        rounds.append(rnd)
    return rounds


def op_statistics(rounds):
    """Median time of each operation over the rounds; then their sum (the
    time of a round made of typical operations), their median and their
    tail (the value with TAIL_BEYOND operations above it)."""
    medians = {label: statistics.median(r.times[label] for r in rounds)
               for label in rounds[0].times}
    per_op = sorted(medians.values())
    n = len(per_op)
    if n < MIN_OPS_FOR_TAIL:
        raise SystemExit(f"a round has {n} operations, fewer than {MIN_OPS_FOR_TAIL}")
    tail_index = n - TAIL_BEYOND - 1
    slowest = sorted(medians, key=medians.get, reverse=True)[:TAIL_BEYOND + 2]
    return {"run_s": sum(per_op), "ops_per_round": n,
            "p50_s": statistics.median(per_op),
            "tail_s": per_op[tail_index],
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "tail_ops_beyond": TAIL_BEYOND,
            "slowest": [[repr(label), medians[label]] for label in slowest]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fincat" / "__init__.py").is_file():
        print(f"fincat sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    fc, inputs, setup_times = set_up(workload, args.seed, tracer)
    # The inputs live for the whole run: keep full collections from scanning
    # them again and again, which made round times depend on where a
    # collection fell. Objects the program makes are still collected.
    gc.collect()
    gc.freeze()
    rounds = run_rounds(fc, workload, inputs, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()

    problems = [p for r in rounds for p in r.problems]
    correct = not problems
    items = rounds[0].items
    stats = op_statistics(rounds)
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    # the high-water mark after set-up and MIN_ROUNDS rounds, so that it does
    # not depend on how many rounds fit in --seconds
    peak_mb = rounds[MIN_ROUNDS - 1].peak_rss_mb

    if tracer is None:
        values = {"setup_s": statistics.median(setup_times), "run_s": stats["run_s"],
                  "op_p50_ms": stats["p50_s"] * 1e3,
                  "op_tail_ms": stats["tail_s"] * 1e3,
                  "peak_rss_mb": peak_mb, "items_verified": items}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in END_TO_END}
    else:
        metrics = tracer.per_layer("setup", range(len(rounds)))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems[:20],
        "attempted": attempted, "failed": failed,
        "failures": sorted({f"{label}: {name}" for r in rounds
                            for label, name in r.failures.items()}),
        "rounds": len(rounds),
        "round_run_s": [sum(r.times.values()) for r in rounds],
        "peak_rss_mb_by_round": [r.peak_rss_mb for r in rounds],
        "setup_times_s": setup_times, "ops": stats, "items_verified": items,
        "metrics": metrics,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "run_s": stats["run_s"]})

    print(f"{args.workload}: {len(rounds)} rounds of {stats['ops_per_round']} "
          f"operations, run_s {stats['run_s']:.3f}, tail at p{stats['tail_percentile']:.2f} "
          f"({TAIL_BEYOND} operations beyond), {attempted} attempted, "
          f"{failed} failed, {items} items verified"
          + ("" if correct else f", CHECK FAILED: {problems[0]}"), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
