"""Benchmark for latticenmf: seeded workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload hull-interior --seed 1 --seconds 38 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Metric names and
units come from ``BENCHMARK.json``. A fuller record (environment, sample
counts, tail percentile) goes to ``bench/out/``, with the spans of a traced
run. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from check import check_cli_outputs, check_result, output_paths
from golden import golden_matrices
from tracing import Tracer, factorization_info, layer_metrics
from workloads import WORKLOADS, Case, make_cases

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

# Set-up is repeated this many times and its median reported.
SETUP_TRIALS = 15

# Nominal seconds of the reference work, about its median on a shared 2-vCPU
# Intel Xeon with Python 3.11 and numpy 2.4. Every reported time is scaled
# by this over the reference time measured next to it; see ``Reference``.
REFERENCE_SECONDS = 0.005


class ProgramMissing(Exception):
    """latticenmf cannot be imported from this checkout's ``src``."""


def import_latticenmf():
    """Import latticenmf afresh from ``<checkout>/src`` and nowhere else."""
    for name in [n for n in sys.modules if n == "latticenmf" or n.startswith("latticenmf.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        module = importlib.import_module("latticenmf")
        importlib.import_module("latticenmf.cli")
    except ImportError as err:
        raise ProgramMissing(f"cannot import latticenmf from {src}: {err}") from None
    if not Path(module.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"latticenmf was imported from {module.__file__}, not {src}")
    return module


def write_input(case, path: Path) -> None:
    """Write ``case.a`` exactly (17 significant digits) as CSV or MatrixMarket."""
    if case.fmt == "csv":
        np.savetxt(path, case.a, fmt="%.17g", delimiter=",")
        return
    n, m = case.a.shape
    body = "\n".join(f"{x:.17g}" for x in case.a.ravel(order="F"))
    path.write_text(f"%%MatrixMarket matrix array real general\n{n} {m}\n{body}\n", encoding="utf-8")


_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_ARRAY = _REFERENCE_RNG.standard_normal(20_000)
_REFERENCE_LIST = [float(x) for x in _REFERENCE_RNG.standard_normal(4_000)]


def reference_work() -> None:
    """Fixed work independent of latticenmf: a numpy sort and a Python sort
    and dict over a few hundred kB.

    Of the candidates tried (an interpreter loop with small numpy solves,
    formatting and parsing a text file, and this), this one slowed down most
    nearly in step with latticenmf calls when the machine changed speed.
    """
    np.sort(_REFERENCE_ARRAY.copy())
    sorted(_REFERENCE_LIST)
    {round(x, 3): x for x in _REFERENCE_LIST}


class Reference:
    """Times ``reference_work`` next to each timed piece of the program.

    The CPUs of a shared machine run fast or up to about 2x slower for
    stretches of seconds to minutes, so raw times of the same code differ
    between runs by more than any change worth detecting. The reference work
    slows down with them. A program time ``t`` measured between reference
    samples ``before`` and ``after`` is reported as
    ``t * REFERENCE_SECONDS / mean(before, after)``: seconds on a machine on
    which the reference work takes ``REFERENCE_SECONDS``. The raw times are
    kept in the run's record.
    """

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(5):  # warm-up, not recorded
            reference_work()

    def time(self) -> int:
        """Run the reference work once; the index of its sample."""
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, seconds: float, before: int) -> float:
        """``seconds`` timed between samples ``before`` and ``before + 1``, scaled."""
        return seconds * REFERENCE_SECONDS / statistics.fmean(self.samples[before:before + 2])


class Runner:
    """Makes one call of a workload and checks its output.

    ``call`` is what is timed; ``check`` runs after it, untimed, and returns
    the list of problems (empty when the output is correct).
    """

    def __init__(self, workload, lnmf, cases, work_dir: Path, tracer: Tracer):
        self.kind = WORKLOADS[workload].kind
        self.lnmf = lnmf
        self.tracer = tracer
        self.paths = {}
        if self.kind == "cli":
            for i, case in enumerate(cases):
                case_dir = work_dir / f"{i:02d}-{case.name}"
                (case_dir / "out").mkdir(parents=True, exist_ok=True)
                path = case_dir / f"A.{case.fmt}"
                write_input(case, path)
                self.paths[case.name] = (path, case_dir / "out")

    def call(self, case, traced: bool):
        if self.kind == "factorize":
            if not traced:
                return self.lnmf.factorize(case.a)
            with self.tracer.span("factorize") as record:
                result = self.lnmf.factorize(case.a)
                record[5] = factorization_info(result)
            return result
        path, out_dir = self.paths[case.name]
        argv = [str(path), "--out-dir", str(out_dir), "--report", case.report]
        if not traced:
            return self.lnmf.cli.run(argv)
        with self.tracer.span("cli.run"):
            return self.lnmf.cli.run(argv)

    def check(self, case, output) -> list[str]:
        if self.kind == "factorize":
            return check_result(case, output)
        out_dir = self.paths[case.name][1]
        problems = check_cli_outputs(case, output, out_dir)
        # The next call of this input must write its outputs afresh.
        for path in output_paths(case, out_dir):
            path.unlink(missing_ok=True)
        return problems


class Tally:
    """Every call of a run: its input, raw time, the reference sample taken
    just before it, and whether its output passed."""

    def __init__(self):
        self.names: list[str] = []
        self.seconds: list[float] = []
        self.before: list[int | None] = []
        self.failed = 0
        self.problems: list[str] = []
        self.failed_inputs: set[str] = set()

    def run_pass(self, runner: Runner, cases, reference: Reference | None = None,
                 traced: bool = False) -> None:
        """Call every input once. With a ``reference``, its work runs before
        the first call and after each call."""
        before = reference.time() if reference else None
        for case in cases:
            if traced:
                runner.tracer.call_id += 1
            start = time.perf_counter()
            try:
                output = runner.call(case, traced)
            except Exception as err:  # a raising call is a failed call, not a crash
                elapsed = time.perf_counter() - start
                problems = [f"raised {type(err).__name__}: {err}"]
            else:
                elapsed = time.perf_counter() - start
                problems = runner.check(case, output)
            self.names.append(case.name)
            self.seconds.append(elapsed)
            self.before.append(before)
            if reference:
                before = reference.time()
            if problems:
                self.failed += 1
                self.failed_inputs.add(case.name)
                if len(self.problems) < 10:
                    self.problems.append(f"{case.name}: {'; '.join(problems)}")

    def scaled(self, reference: Reference) -> list[float]:
        return [reference.scale(t, i) for t, i in zip(self.seconds, self.before)]

    def input_medians(self, scaled: list[float]) -> dict[str, float]:
        """Median scaled time of each input that passed every call."""
        by_input: dict[str, list[float]] = {}
        for name, t in zip(self.names, scaled):
            if name not in self.failed_inputs:
                by_input.setdefault(name, []).append(t)
        return {name: statistics.median(ts) for name, ts in by_input.items()}


def set_up(workload: str, seed: int, work_dir: Path, tracer: Tracer, warm_ups: Tally):
    """Import, generate and write the inputs, and make one warm-up call.

    The warm-up call is on the first golden matrix (the first file of
    ``cli-batch``), whose cost does not depend on the seed.
    """
    lnmf = import_latticenmf()
    cases = make_cases(workload, seed)
    runner = Runner(workload, lnmf, cases, work_dir, tracer)
    warm_up = cases[:1] if runner.kind == "cli" else [Case(*golden_matrices()[0])]
    warm_ups.run_pass(runner, warm_up)
    return runner, cases


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Make passes over the inputs until ``seconds`` have passed (at least
    one), with ``SETUP_TRIALS`` set-ups spread evenly over the run, and
    return the record of the run."""
    tracer = Tracer()
    reference = Reference()
    warm_ups, untraced, traced = Tally(), Tally(), Tally()
    setups, setups_before = [], []
    cpu = wall = 0.0

    def set_up_once():
        shutil.rmtree(work_dir, ignore_errors=True)  # the previous set-up's files
        setups_before.append(reference.time())
        start = time.perf_counter()
        made = set_up(workload, seed, work_dir, tracer, warm_ups)
        setups.append(time.perf_counter() - start)
        reference.time()
        return made

    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        # Set-ups are spread over the run, so that their median does not
        # hang on the state of the machine in one stretch.
        if len(setups) * seconds <= (time.perf_counter() - started) * SETUP_TRIALS:
            runner, cases = set_up_once()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        # A traced run takes no reference samples, which would count in
        # process.cpu_per_wall.
        untraced.run_pass(runner, cases, None if trace else reference)
        cpu += time.process_time() - cpu0
        wall += time.perf_counter() - wall0
        if trace:
            tracer.install()
            try:
                traced.run_pass(runner, cases, traced=True)
            finally:
                tracer.uninstall()
        passes += 1
    while len(setups) < SETUP_TRIALS:
        set_up_once()

    tallies = (warm_ups, untraced, traced)
    attempted = sum(len(t.seconds) for t in tallies)
    failed = sum(t.failed for t in tallies)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for t in tallies for p in t.problems],
        "inputs": len(cases),
        "passes": passes,
        "setup_seconds": setups,
        "call_seconds": untraced.seconds,
    }
    if trace:
        metrics = layer_metrics(tracer)
        metrics["process.cpu_per_wall"] = cpu / wall
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.seconds) / statistics.median(untraced.seconds) - 1.0
        )
        record.update(metrics=metrics, absent=tracer.absent, tracer=tracer)
        return record

    setups_scaled = [reference.scale(t, i) for t, i in zip(setups, setups_before)]
    scaled = untraced.scaled(reference)
    medians = untraced.input_medians(scaled)
    # With no passing input the call metrics fall back to every call time.
    per_input = sorted(medians.values()) or scaled
    q = tail_percentile(len(scaled))
    record.update({
        "tail_percentile": q,
        "reference_seconds": REFERENCE_SECONDS,
        "reference_samples": reference.samples,
        "setup_reference_index": setups_before,
        "call_reference_index": untraced.before,
        "setup_scaled": setups_scaled,
        "call_scaled": scaled,
        "input_medians": medians,
    })
    record["metrics"] = {
        "setup_s": statistics.median(setups_scaled),
        "call_s_p50": statistics.median(per_input),
        "call_s_tail": float(np.percentile(scaled, q)),
        "cols_per_s": sum(c.a.shape[1] for c in cases if c.name in medians) / sum(per_input)
        if medians else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return record


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_before) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "note": "CPU clock and frequency are not controlled; times are scaled by a "
        "reference work timed next to them, and medians are reported",
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    # The command line prints a status line per call; keep it off the result.
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    record["environment"] = environment(load_before)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"failed call: {problem}", file=sys.stderr)
    tail = f", tail at p{record['tail_percentile']:.4g}" if "tail_percentile" in record else ""
    print(f"workload {args.workload} seed {args.seed}: {record['inputs']} inputs, "
          f"{record['passes']} passes, {len(record['call_seconds'])} timed calls{tail}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({"environment": record["environment"], "absent": record.get("absent", [])}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
