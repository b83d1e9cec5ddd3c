"""losstree benchmark: CLI latency and throughput on three tree workloads.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

One client in one process issues CLI commands through
``losstree.cli.main(argv)`` in a closed loop: each command starts after the
previous one returns.  A round takes one sample of every command of the
workload, a sample being calls of one command until they add up to
MIN_SAMPLE_S; rounds repeat for about ``--seconds``, and each metric is the
median over samples, scaled by a machine-speed probe (see ``probe``).
Every output is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes one call
per sample, runs half the time untraced and half with ``tracer.Tracer``
installed, and prints per-layer self time and calls per round, the
tracing overhead, and the package import time from ``python -X importtime``.

The last line of standard output is the result object; the line before it
is a record of the run (versions, machine, tree shapes, sample counts).
Inputs, CSVs and spans go to ``.perfbench_work/`` under the root.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Cheap commands are called repeatedly within one sample, so that every
# command gets a similar share of the run instead of a few milliseconds.
MIN_SAMPLE_S = 0.3
SUBPROCESS_TIMEOUT_S = 120

# Per-layer functions reported with --trace 1 (the tracer records more).
LAYERS = (
    "cli.main",
    "topology.load_topology",
    "topology.build_tree",
    "topology.LogicalTree.paths",
    "lossmodel.load_observations",
    "lossmodel.forward",
    "lossmodel.sample_feasible",
    "noiseless.upsparse",
    "noiseless.closed_form",
    "noiseless.classify_complexes",
    "noiseless.solution_report",
    "noiseless.SolutionReport.to_json",
    "noisy.load_intervals",
    "noisy.z_stats",
    "noisy.upsparse_plus",
    "noisy.NoisySolution.to_json",
    "baselines.scfs",
    "simulation.run_experiment",
    "simulation.path_loss_probabilities",
    "simulation.simulate_probes",
    "simulation.confidence_intervals",
    "simulation.metrics",
    "oracle.uniqueness_census",
    "oracle.sparsest_enumerate",
    "oracle.SupportScanner.level",
    "oracle.SupportScanner.feasible_at",
    "oracle.l1_sampling_check",
)
HIT_RATIO = "oracle.SupportScanner.feasible_at"

# On a shared host the same code runs at two speeds about 1.85x apart,
# switching every few seconds to minutes, so whole runs can land on the
# slow one.  A fixed piece of Python work timed next to every sample tracks
# the current speed, and each timed figure is scaled to a machine on which
# that probe takes PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.005


def probe() -> float:
    """Seconds for a fixed pure-Python loop, the fastest of three tries."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    """Issues commands, checks every output, and counts attempts and failures."""

    def __init__(self, root: str, env: dict):
        from losstree import cli

        self.cli = cli
        self.root = root
        self.env = env
        self.attempted = 0
        self.failures = []
        self.trail = []  # (metric, unscaled seconds per call, probe after) per sample

    def call(self, cmd):
        if cmd.cold:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "losstree.cli", *cmd.argv],
                    capture_output=True,
                    text=True,
                    env=self.env,
                    cwd=self.root,
                    timeout=SUBPROCESS_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return 1, "", f"no exit within {SUBPROCESS_TIMEOUT_S} s"
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed op, not a failed run
                code, err = 1, io.StringIO(f"uncaught {exc!r}")
        return code, out.getvalue(), err.getvalue()

    def sample(self, cmd, min_s: float) -> float:
        """Seconds per call, over calls repeated until they add up to ``min_s``.

        At least one call; checks run between calls, untimed.
        """
        gc.collect()
        elapsed = 0.0
        calls = 0
        while calls == 0 or elapsed < min_s:
            start = time.perf_counter()
            result = self.call(cmd)
            elapsed += time.perf_counter() - start
            self.check(cmd, result)
            calls += 1
        return elapsed / calls

    def check(self, cmd, result) -> None:
        self.attempted += 1
        try:
            problem = cmd.check(*result)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.failures.append(f"{cmd.metric}: {problem}")

    def rounds(self, commands, seconds: float, min_sample_s: float, on_sample=None) -> dict:
        """Closed-loop rounds of one sample per command for about ``seconds``.

        Another round starts only while its midpoint would fall before the
        deadline, so a run ends within about half a round of ``seconds``;
        there is always at least one round.

        Returns seconds per call for each metric, scaled by the probes just
        before and after each sample; ``on_sample`` receives each scale.
        """
        samples = {cmd.metric: [] for cmd in commands}
        start = time.perf_counter()
        before = probe()
        self.trail.append(("start", 0.0, before))
        while True:
            round_start = time.perf_counter()
            for cmd in commands:
                seconds_per_call = self.sample(cmd, min_sample_s)
                after = probe()
                self.trail.append((cmd.metric, seconds_per_call, after))
                scale = 2 * PROBE_REFERENCE_S / (before + after)
                samples[cmd.metric].append(seconds_per_call * scale)
                if on_sample is not None:
                    on_sample(scale)
                before = after
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= seconds:
                return samples


def sample_value(cmd, seconds_per_call: float) -> float:
    """A sample in the metric's unit: ms per call, or units of work per second."""
    if cmd.metric.endswith("_ms"):
        return seconds_per_call * 1000.0
    return cmd.units / seconds_per_call


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def peak_rss_mb(runner: Runner, commands) -> float:
    """Peak RSS of one fresh interpreter that runs one op of each in-process command."""
    argvs = [cmd.argv for cmd in commands if not cmd.cold]
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "mempass.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=runner.env,
        cwd=runner.root,
        text=True,
    ) as proc:
        proc.stdin.write(json.dumps(argvs))
        proc.stdin.close()
        out = proc.stdout.read()
        # wait4 rather than wait: it also returns the child's resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    codes = json.loads(out) if proc.returncode == 0 else []
    runner.attempted += len(argvs)
    if codes != [0] * len(argvs):
        runner.failures.append(f"memory pass: exit {proc.returncode}, codes {codes}")
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def import_ms(runner: Runner) -> float:
    """Milliseconds to import losstree.cli, from ``python -X importtime``.

    Scaled by the mean of the probes taken before and after each import.
    """
    times = []
    before = probe()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import losstree.cli"],
            capture_output=True,
            text=True,
            env=runner.env,
            cwd=runner.root,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        runner.attempted += 1
        if proc.returncode != 0:
            runner.failures.append(f"import pass: exit {proc.returncode}")
            continue
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            # Top-level rows name the module with no indentation.
            if len(parts) == 3 and parts[2].startswith(" losstree"):
                total_us += int(parts[1])
        after = probe()
        times.append(total_us / 1000.0 * 2 * PROBE_REFERENCE_S / (before + after))
        before = after
    return statistics.median(times) if times else 0.0


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, trace: bool, root: str):
    """Set up, measure and check one workload; return (result, record)."""
    import numpy
    import scipy
    import tracer
    import workloads

    sizes = workloads.WORKLOADS[workload]
    work = os.path.join(root, ".perfbench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
    }
    runner = Runner(root, env)
    run_start = time.perf_counter()

    generate_s = []
    setup_probes = [probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        commands, shapes = workloads.build(sizes, seed, work)
        generate_s.append(time.perf_counter() - start)
        setup_probes.append(probe())
    # One untimed call per command.  The cold start needs none: importing
    # the package above already wrote its bytecode, and each cold start is a
    # fresh process anyway.
    start = time.perf_counter()
    for cmd in commands:
        if not cmd.cold:
            runner.check(cmd, runner.call(cmd))
    warmup_s = time.perf_counter() - start
    setup_probes.append(probe())
    # Objects made during set-up stay alive all run; keep the collector off them.
    gc.collect()
    gc.freeze()
    record.update(trees=shapes, generate_s=generate_s, warmup_s=warmup_s)

    if not trace:
        samples = runner.rounds(commands, seconds, MIN_SAMPLE_S)
        values = {
            cmd.metric: [sample_value(cmd, s) for s in samples[cmd.metric]] for cmd in commands
        }
        metrics = {
            metric: {
                "value": statistics.median(v),
                "unit": "ms" if metric.endswith("_ms") else "1/s",
            }
            for metric, v in values.items()
        }
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(runner, commands), "unit": "MB"}
        setup_scale = PROBE_REFERENCE_S / statistics.mean(setup_probes)
        metrics["setup_s"] = {
            "value": (statistics.median(generate_s) + warmup_s) * setup_scale,
            "unit": "s",
        }
        record["samples"] = {m: summary(v) for m, v in values.items()}
    else:
        # One call per sample, so a round is one call of every command and
        # the calls per round are exact counts.
        inproc = [cmd for cmd in commands if not cmd.cold]
        plain = runner.rounds(inproc, seconds / 2, 0.0)
        segments = []  # (spans so far, scale) after each traced sample
        with tracer.Tracer() as tr:
            traced = runner.rounds(
                inproc, seconds / 2, 0.0, lambda scale: segments.append((len(tr.spans), scale))
            )
        rounds = len(traced[inproc[0].metric])
        self_s, calls = tr.totals(segments)
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.self_ms"] = {"value": self_s[name] * 1000.0 / rounds, "unit": "ms"}
            metrics[f"{name}.calls"] = {"value": calls[name] / rounds, "unit": "count"}
        metrics[f"{HIT_RATIO}.hit_ratio"] = {
            "value": tr.hits[HIT_RATIO] / max(calls[HIT_RATIO], 1),
            "unit": "ratio",
        }
        base = sum(statistics.median(v) for v in plain.values())
        with_trace = sum(statistics.median(v) for v in traced.values())
        metrics["trace.overhead_pct"] = {"value": 100.0 * (with_trace / base - 1.0), "unit": "%"}
        metrics["cli.import_ms"] = {"value": import_ms(runner), "unit": "ms"}
        spans_file = os.path.join(work, "spans.jsonl")
        tr.write(spans_file)
        record.update(
            spans_file=spans_file,
            spans=len(tr.spans),
            seconds_per_call={m: summary(v) for m, v in plain.items()},
            traced_seconds_per_call={m: summary(v) for m, v in traced.items()},
        )

    record.update(
        run_s=time.perf_counter() - run_start,
        probe_s=summary([p for _, _, p in runner.trail]),
        trail=runner.trail,
        setup_probe_s=setup_probes,
        loadavg_end=os.getloadavg(),
        attempted=runner.attempted,
        failures=runner.failures[:20],
    )
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide", "caterpillar", "small-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "losstree", "cli.py")):
        print("perfbench: src/losstree not found; run from the repository root", file=sys.stderr)
        return 2
    # Pin to one CPU, children included, so the probe measures the speed of
    # the CPU every timed command runs on; one CPU gets one BLAS thread.
    # Both are set before numpy loads.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
