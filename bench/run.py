"""Closed-loop, in-process benchmark of the uotcone CLI.

    python3 bench/run.py --workload gauss-cone --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's fixed op list (one round) again
and again until ``--seconds`` have passed, always finishing the round it is
in.  Each op is one ``uotcone`` run through ``uotcone.cli.main(argv)``: its
config is written before the timer starts, and its outputs are read back and
checked against closed forms after the timer stops.  Commands are
interleaved round-robin and one untimed warm-up op per command runs first.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A readable report
goes to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
BUDGET_S = 10.0  # wall-clock budget inside check_constant_acceleration

# The machine's speed drifts by up to 40% in phases of 10-60 s (README.md),
# longer than a run.  A fixed reference computation is therefore timed every
# SAMPLE_PERIOD_S of the measured phase, from a timer signal so that long ops
# are sampled too, and its own time is taken out of the op it interrupted.
# Reported times are scaled to the speed at which the reference takes
# REF_NOMINAL_S: seconds * REF_NOMINAL_S / median(reference times around the
# op), see SpeedSampler.scale.
REF_NOMINAL_S = 0.008
SAMPLE_PERIOD_S = 0.5
SETUP_REFS = 3  # reference samples before and after each fresh interpreter

COMMANDS = ("gauss-connect", "gauss-geodesic", "cone-geodesic", "pde-evolve",
            "pde-metric", "bb-action", "fr-geodesic", "check")
CHECK_NAMES = ("constant_acceleration", "energy_conservation", "lyapunov_residual",
               "mccann_oracle", "flat_cone_oracle", "shooting",
               "submersion_consistency", "energy_lower_bound",
               "elliptic_closed_forms", "bb_action")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "op_p50_gmean_s": "s"}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "config.validate_config.s": "s",
    "cli.main.self_s": "s",
    "gaussian.shoot_bvp.s": "s",
    "gaussian.shoot_bvp.calls": "count",
    "gaussian.shoot_bvp.failed": "count",
    "gaussian.integrate_geodesic.s": "s",
    "gaussian.integrate_geodesic.steps_per_s": "1/s",
    "gaussian.lyapunov_solve.s": "s",
    "gaussian.lyapunov_solve.calls": "count",
    "cone.integrate_cone.s": "s",
    "cone.integrate_cone.steps_per_s": "1/s",
    "pde.integrate_pde.s": "s",
    "pde.integrate_pde.node_steps_per_s": "1/s",
    "pde.solve_potential.s": "s",
    "pde.solve_potential.calls": "count",
    "pde.solve_potential.failed": "count",
    "bb.bb_action.s": "s",
    "bb.from_small_trace.s": "s",
    "trace.write_csv.s": "s",
    "trace.write_csv.mb": "MB",
    "trace.write_csv.mb_per_s": "MB/s",
    "trace.mass_quadratic_fit.s": "s",
    **{f"checks.{c}.s": "s" for c in CHECK_NAMES},
    "checks.constant_acceleration.budget_used": "ratio",
    "tracing.overhead_s": "s",
    **{f"cmd.{c}.p50_s": "s" for c in COMMANDS},
}


def _fresh_import(*flags):
    """Wall time and stderr of a fresh interpreter importing the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import uotcone.cli"],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("fresh interpreter cannot import uotcone.cli:\n" + proc.stderr)
    return elapsed, proc.stderr


def measure_setup(refs):
    """Median wall time of fresh CLI imports, with speed samples around each."""
    _fresh_import()  # untimed: compiles bytecode and warms the file cache
    times = []
    for _ in range(SETUP_SAMPLES):
        speed_sample(refs)
        times.append(_fresh_import()[0])
    speed_sample(refs)
    return statistics.median(times)


def measure_import_split():
    """Median total and scipy share of ``-X importtime`` for the CLI import."""
    totals, scipy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        total = sci = 0
        for line in _fresh_import("-X", "importtime")[1].splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "uotcone.cli":
                total = int(parts[1])
            if name == "scipy" or name.startswith("scipy."):
                sci += int(parts[0])
        totals.append(total * 1e-6)
        scipy.append(sci * 1e-6)
    return statistics.median(totals), statistics.median(scipy)


def reference_seconds():
    """Time of a fixed computation like the ops' own: a Python loop and small
    numpy updates, the two parts whose speed tracked the ops' best (README).
    It never calls the program, so a change to the program leaves it alone."""
    start = time.perf_counter()
    x = 0
    for i in range(40000):
        x += i * i
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        a = 0.5 * (a + np.roll(a, -1)) + 1e-3
    return time.perf_counter() - start


def speed_sample(refs):
    refs.extend(reference_seconds() for _ in range(SETUP_REFS))


class SpeedSampler:
    """Times the reference every SAMPLE_PERIOD_S from SIGALRM while active.
    ``stamps`` holds (time, reference seconds); ``paused`` is the total time
    spent inside the handler."""

    def __init__(self):
        self.stamps = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.stamps.append((start, reference_seconds()))
        self.paused += time.perf_counter() - start

    def scale(self, start=None, end=None):
        """REF_NOMINAL_S over the median reference time: of the whole run, or
        of the samples taken during [start, end] or within one period of it
        (at least the three nearest), which follows drift within a run."""
        refs = [r for _, r in self.stamps]
        if start is not None:
            refs = [r for t, r in self.stamps
                    if start - SAMPLE_PERIOD_S <= t <= end + SAMPLE_PERIOD_S]
            if len(refs) < 3:
                mid = 0.5 * (start + end)
                refs = [r for _, r in sorted(self.stamps, key=lambda s: abs(s[0] - mid))[:3]]
        return REF_NOMINAL_S / statistics.median(refs)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_op(cli, op, workdir, sampler, tracer=None):
    """One timed CLI run; returns (seconds, ok, failure reason or None, start,
    end).  Time the sampler spent in its handler during the op is not counted."""
    config, outdir = op.paths(workdir)
    (outdir / "summary.json").unlink(missing_ok=True)
    argv = ["--config", str(config), "--out", str(outdir), "--seed", str(op.seed)]
    sink = io.StringIO()
    code, reason = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        paused = sampler.paused
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.op = op.name
                code = tracer.call("cli.main", cli.main, argv)
        except Exception:
            reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        end = time.perf_counter()
    elapsed = end - start - (sampler.paused - paused)
    if reason is None and code != 0:
        reason = f"exit code {code}: " + (sink.getvalue().strip().splitlines() or [""])[-1]
    return elapsed, reason is None, reason, start, end


def layer_metrics(tracer, traced_rounds, scale):
    """Per-round time, calls and failures per span name, plus work rates;
    times are multiplied and rates divided by the speed scale.  Span times
    include the speed sampler's handler, about 1.6% of a run."""
    spans = tracer.spans
    agg = {}
    for name, _, parent, start, end, ok, work in spans:
        # a span nested in a span of the same name is already counted
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][2]
        if p >= 0:
            continue
        a = agg.setdefault(name, {"s": 0.0, "calls": 0, "failed": 0, "work": 0, "self": 0.0})
        a["s"] += end - start
        a["calls"] += 1
        a["failed"] += not ok
        a["work"] += work
        a["self"] += end - start
        if parent >= 0:
            agg[spans[parent][0]]["self"] -= end - start

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def rate(name, unit=1.0):
        s = get(name, "s")
        return get(name, "work") * unit / (s * scale) if s > 0 else 0.0

    r = max(traced_rounds, 1)
    out = {}
    for name in ("config.validate_config", "gaussian.shoot_bvp",
                 "gaussian.integrate_geodesic", "gaussian.lyapunov_solve",
                 "cone.integrate_cone", "pde.integrate_pde", "pde.solve_potential",
                 "bb.bb_action", "bb.from_small_trace", "trace.write_csv",
                 "trace.mass_quadratic_fit",
                 *(f"checks.{c}" for c in CHECK_NAMES)):
        out[f"{name}.s"] = scale * get(name, "s") / r
    for name in ("gaussian.shoot_bvp", "gaussian.lyapunov_solve", "pde.solve_potential"):
        out[f"{name}.calls"] = get(name, "calls") / r
    for name in ("gaussian.shoot_bvp", "pde.solve_potential"):
        out[f"{name}.failed"] = get(name, "failed") / r
    out["cli.main.self_s"] = scale * get("cli.main", "self") / r
    out["gaussian.integrate_geodesic.steps_per_s"] = rate("gaussian.integrate_geodesic")
    out["cone.integrate_cone.steps_per_s"] = rate("cone.integrate_cone")
    out["pde.integrate_pde.node_steps_per_s"] = rate("pde.integrate_pde")
    out["trace.write_csv.mb"] = get("trace.write_csv", "work") * 1e-6 / r
    out["trace.write_csv.mb_per_s"] = rate("trace.write_csv", 1e-6)
    budget = [end - start for name, _, _, start, end, _, _ in spans
              if name == "checks.constant_acceleration"]
    out["checks.constant_acceleration.budget_used"] = max(budget, default=0.0) / BUDGET_S
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uotcone" / "cli.py").is_file():
        print(f"bench: no uotcone sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    setup_refs = []
    setup_raw = measure_setup(setup_refs)
    import_split = measure_import_split() if args.trace else None
    setup_scale = REF_NOMINAL_S / statistics.median(setup_refs)

    sys.path.insert(0, str(SRC))
    from uotcone import cli
    if Path(cli.__file__).resolve().parent != (SRC / "uotcone").resolve():
        print(f"bench: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    groups = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    ops = workloads.interleave(groups)
    warmups = [g[0] for g in groups]
    if args.workload == "acceptance":
        warmups = [workloads.acceptance_warmup()]
    for op in ops + warmups:
        op.write(workdir)

    problems = []

    def verify(op):
        try:
            found = op.check(op.paths(workdir)[1])
        except (OSError, ValueError, KeyError) as exc:
            found = [f"outputs unreadable: {exc!r}"]
        if found:
            problems.append((op.name, found))

    sampler = SpeedSampler()
    for op in warmups:
        if run_op(cli, op, workdir, sampler)[1]:
            verify(op)

    tracer = Tracer() if args.trace else None
    rounds = []  # (traced, [(command, raw seconds, ok, start, end)])
    reasons = {}
    start = time.perf_counter()
    with sampler:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            samples = []
            for op in ops:
                gc.collect()
                if traced:
                    tracer.install()
                try:
                    elapsed, ok, reason, t0, t1 = run_op(cli, op, workdir, sampler,
                                                         tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                samples.append((op.command, elapsed, ok, t0, t1))
                if ok:
                    verify(op)
                else:
                    reasons.setdefault(op.name, reason)
            rounds.append((traced, samples))
            enough = not args.trace or len(rounds) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break
    scale = sampler.scale()
    # each op scaled by the reference speed measured while it ran
    rounds = [(traced, [(c, raw, ok, raw * sampler.scale(t0, t1)) for c, raw, ok, t0, t1 in samples])
              for traced, samples in rounds]

    def round_median(traced, k):
        return statistics.median(sum(s[k] for s in r) for t, r in rounds if t == traced)

    untraced = [r for t, r in rounds if not t]
    latencies = {c: [s[3] for r in untraced for s in r if s[0] == c and s[2]] for c in COMMANDS}
    p50 = {c: statistics.median(v) for c, v in latencies.items() if v}
    attempted = sum(len(r) for _, r in rounds)
    failed = sum(not s[2] for _, r in rounds for s in r)

    if args.trace:
        values = layer_metrics(tracer, len(rounds) - len(untraced), scale)
        values["import.total_s"], values["import.scipy_s"] = (
            v * setup_scale for v in import_split)
        values["tracing.overhead_s"] = round_median(True, 3) - round_median(False, 3)
        for c in COMMANDS:
            values[f"cmd.{c}.p50_s"] = p50.get(c, 0.0)
        units = PER_LAYER
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": setup_scale * setup_raw,
            "wall_s": round_median(False, 3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_gmean_s": math.exp(statistics.fmean(math.log(v) for v in p50.values())),
        }
        units = END_TO_END

    WORK.mkdir(exist_ok=True)
    (WORK / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"setup_raw_s": setup_raw, "setup_scale": setup_scale, "scale": scale,
                    "stamps": sampler.stamps, "rounds": rounds}), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    report = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} ops attempted, {failed} failed; reference {REF_NOMINAL_S / scale * 1e3:.2f} ms "
          f"over {len(sampler.stamps)} samples (scale {scale:.3f}), set-up reference scale "
          f"{setup_scale:.3f}", file=report)
    print(f"  raw: set-up {setup_raw:.4f} s, round {round_median(False, 1):.4f} s", file=report)
    for c in COMMANDS:
        if latencies[c]:
            raw = [s[1] for r in untraced for s in r if s[0] == c and s[2]]
            print(f"  {c:15s} n={len(raw):4d} p50 {p50[c]:.4f} s  p90 {np.percentile(latencies[c], 90):.4f} s"
                  f"  (raw p50 {statistics.median(raw):.4f} s)", file=report)
    for name, reason in sorted(reasons.items()):
        print(f"  failed op {name}: {reason}", file=report)
    for name, found in problems:
        print(f"  WRONG OUTPUT {name}: {'; '.join(found)}", file=report)
    for name, unit in units.items():
        print(f"  {name} = {values[name]!r} {unit}", file=report)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
