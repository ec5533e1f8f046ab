#!/usr/bin/env python3
"""compnet benchmark: run one workload through ``compnet.cli.main`` and report.

    python3 perfbench/run.py --workload {compare,score} [--seed N]
        [--seconds S] [--trace 0|1] [--size full|tiny]

The load is a closed loop with one client: each CLI command starts after
the previous one returns, in this process.  Inputs come from ``--seed``
only.  The run sets its workload up at least three times and for at
least three seconds (``setup_s`` is the median), then repeats the
workload's commands for about ``--seconds`` seconds, at least twice,
checking every repetition's outputs and that they are byte-identical
across repetitions.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
untraced repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate; the last line carries per-layer metrics from the traced ones
and the tracing overhead against the untraced ones.  Spans, timings and
the environment go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads so every commit is measured with the same BLAS
# threading, whatever the caller's environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Tracer, check_nesting, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_SETUPS = 3
SETUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 120
MIN_REPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "test_acc": "fraction",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    rules = (("_mb_per_s", "MB/s"), ("_pct", "percentile"), ("_pts", "pts"),
             ("_s", "s"), ("_mb_b64", "MB"), ("_mb_b256", "MB"))
    for suffix, unit in rules:
        if name.endswith(suffix):
            return unit
    if name.endswith(("calls", "_n", "ops_per_step")):
        return "count"
    if "_ms" in name:
        return "ms"
    return "ratio"


@dataclass
class Rep:
    run: str
    traced: bool
    wall_s: float
    cpu_s: float
    commands: int
    failed: int
    problems: list
    test_acc: float
    samples: int
    digest: str
    info: dict
    peak_rss_mb: float  # of the process so far


class CliRunner:
    """Calls ``compnet.cli.main`` in-process, counting commands and failures."""

    def __init__(self, main, tracer):
        self.main = main
        self.tracer = tracer
        self.tracing = False

    def __call__(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if self.tracing:
                    return self.tracer.call("cli.main", self.main, (argv,),
                                            attrs={"command": argv[0]})
                return self.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback escaping main() is a failed command
                traceback.print_exc()
                return 1


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "compnet").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version, "blas_threads": BLAS_THREADS,
            "git_commit": _git_commit(), "source_sha256": source.hexdigest(),
            "workload_seed": seed}


@contextlib.contextmanager
def tracing(tracer, runner: CliRunner, run_id: str, on: bool):
    """Record spans under ``run_id`` for the duration, when ``on``."""
    if on:
        tracer.run = run_id
        tracer.install()
        runner.tracing = True
    try:
        yield
    finally:
        runner.tracing = False
        tracer.uninstall()


def run_rep(workload, runner: CliRunner, tracer, work: Path, run_id: str,
            traced: bool) -> Rep:
    out = work / run_id
    out.mkdir(parents=True)
    outputs = workload.outputs(out)
    for p in outputs:
        p.unlink(missing_ok=True)
    commands = workload.commands(out)
    with tracing(tracer, runner, run_id, traced):
        cpu0, t0 = _cpu_seconds(), perf_counter()
        codes = [runner(argv) for argv in commands]
        wall, cpu = perf_counter() - t0, _cpu_seconds() - cpu0
    problems = [f"compnet {argv[0]} exited {code}"
                for argv, code in zip(commands, codes) if code != 0]
    outcome = None
    if not problems:
        try:
            outcome = workload.check(out)
            problems = outcome.problems
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output check: {type(exc).__name__}: {exc}"]
    failed = len(commands) if problems else 0
    rep = Rep(run_id, traced, wall, cpu, len(commands), failed, problems,
              outcome.test_acc if outcome else 0.0, outcome.samples if outcome else 0,
              _digest(outputs), outcome.info if outcome else {}, _peak_rss_mb())
    shutil.rmtree(out)
    return rep


def run_cli_process(argv: list[str]) -> int:
    """Runs one ``compnet`` command in a child process, as a shell user would."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run([sys.executable, "-m", "compnet.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"compnet {argv[0]} timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    return proc.returncode


def measure(workload, runner, tracer, work: Path, seed: int, seconds: float,
            trace: bool) -> tuple[list[float], float, list[Rep]]:
    # Untraced set-up runs in child processes, so the peak memory this
    # process reports belongs to the workload alone.
    setup_times: list[float] = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        i = len(setup_times)
        setup_dir = work / f"setup-{i}"
        setup_dir.mkdir(parents=True)
        with tracing(tracer, runner, f"setup-{i}", trace):
            t0 = perf_counter()
            workload.setup(runner if trace else run_cli_process, setup_dir, seed)
            setup_times.append(perf_counter() - t0)
        if i:
            shutil.rmtree(work / f"setup-{i - 1}")

    setup_peak_rss_mb = _peak_rss_mb()
    reps: list[Rep] = []
    start = perf_counter()
    while True:
        # With tracing, untraced and traced repetitions alternate.
        traced = trace and len(reps) % 2 == 1
        # A fresh CLI process starts without an earlier command's garbage.
        gc.collect()
        reps.append(run_rep(workload, runner, tracer, work, f"rep-{len(reps)}", traced))
        elapsed = perf_counter() - start
        done = len(reps) >= MIN_REPS and (not trace or len(reps) % 2 == 0)
        if done and elapsed + elapsed / len(reps) > seconds:
            break
    first = reps[0].digest
    for rep in reps[1:]:
        if rep.digest != first and not rep.problems:
            rep.problems.append("outputs differ from the first repetition")
            rep.failed = rep.commands
    return setup_times, setup_peak_rss_mb, reps


def end_to_end(setup_times: list[float], reps: list[Rep]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "samples_per_s": statistics.median(r.samples / r.wall_s for r in reps),
        # The peak only grows, so take it after a fixed number of repetitions:
        # a faster program fitting more of them in must not read as larger.
        "peak_rss_mb": reps[MIN_REPS - 1].peak_rss_mb,
        "test_acc": statistics.median(r.test_acc for r in reps),
    }


def per_layer(tracer, setup_times: list[float], reps: list[Rep], nproc: int
              ) -> dict[str, float]:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    metrics = layer_metrics(tracer.spans, {r.run for r in traced},
                            {f"setup-{i}" for i in range(len(setup_times))})
    plain_wall = sum(r.wall_s for r in plain)
    metrics["cli.cpu_util"] = sum(r.cpu_s for r in plain) / (plain_wall * nproc)
    info = reps[0].info
    metrics["cli.gain_vs_image_only_pts"] = info.get("gain_vs_image_only_pts", 0.0)
    metrics["cli.gain_vs_concat_pts"] = info.get("gain_vs_concat_pts", 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(r.wall_s for r in traced)
                                       / statistics.median(r.wall_s for r in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny only exercises the harness")
    args = parser.parse_args(argv)

    if not (SRC / "compnet" / "__init__.py").is_file():
        print(f"error: no compnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from compnet import cli
    if Path(cli.__file__).resolve().parent != SRC / "compnet":
        print(f"error: imported compnet from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    workload = WORKLOADS[args.workload](SIZES[args.size])
    tracer = Tracer()
    runner = CliRunner(cli.main, tracer)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_peak_rss_mb, reps = measure(
            workload, runner, tracer, work, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{r.run}: {p}" for r in reps for p in r.problems]
    if args.trace:
        problems += check_nesting(tracer.spans)
        values = per_layer(tracer, setup_times, reps, env["nproc"])
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = end_to_end(setup_times, reps)
        units = END_TO_END_UNITS

    details = {"workload": args.workload, "size": args.size, "trace": args.trace,
               "environment": env, "setup_s": setup_times,
               "setup_peak_rss_mb": setup_peak_rss_mb,
               "reps": [asdict(r) for r in reps], "problems": problems,
               "spans": [[s.name, s.start, s.end, s.parent, s.run, s.attrs]
                         for s in tracer.spans]}
    WORK.mkdir(exist_ok=True)
    details_path = WORK / (f"{args.workload}-{args.size}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    details_path.write_text(json.dumps(details) + "\n", encoding="utf-8")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"environment": env, "reps": len(reps),
                      "rep_wall_s": [round(r.wall_s, 4) for r in reps],
                      "info": reps[0].info, "details": str(details_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.commands for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
