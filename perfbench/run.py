"""Benchmark for grfock: cold-process suite timing behind a report-digest gate.

    python3 perfbench/run.py --workload straighten --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table
    python3 perfbench/run.py --digests                     # re-check the pinned digests

A closed loop with one client: each sample starts one fresh interpreter running
``python -m grfock.cli <suite> ...`` from ``src/`` and waits for it to exit, so no
process-global cache (``klmw._memo``) survives from one sample to the next.
Nothing else runs at the same time.

Every sample must exit 0 within ``TIMEOUT_S`` and print a report whose digest
(sha256 of the canonical JSON with ``wall_time_ms`` removed) equals the one
pinned in ``WORKLOADS``.  Any other outcome is a failed sample.

``--trace 0`` reports the end-to-end metrics:

- ``wall_rel``: spawn-to-exit wall time of the suite process, divided by the
  mean wall time of the two ``REFERENCE`` processes timed just before and just
  after it; median over the samples.  Unit ``ref``: one reference run;
- ``setup_s``: spawn-to-exit time of a fresh interpreter that only imports
  ``grfock.cli``, one sample per suite sample, each divided by the references
  around it like ``wall_rel``; the median times ``REFERENCE_S``, i.e. seconds
  on a host where the reference takes ``REFERENCE_S``;
- ``peak_rss_mb``: the suite process's ``ru_maxrss``, median.

The plain medians of the suite and setup wall times are printed too, but they
are not metrics: they follow the host's speed, which drifts (see ``REFERENCE``).
``failed_frac`` is ``failed / attempted`` in the result line, not a metric,
because it is 0 on a correct program.

``--trace 1`` alternates traced samples (``perfbench/tracer.py``) with untraced
ones and reports the per-layer metrics of ``layers.py``, plus the tracing
overhead: traced wall time minus the untraced median.  Count metrics must
repeat exactly across the traced samples.

The suites take no random input.  The seed sets the ``PYTHONHASHSEED`` of every
child, so the digest gate also checks that reports do not depend on it.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it record the machine and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

TIMEOUT_S = 60.0        # one suite process; a timeout is a failed sample
SETUP_TIMEOUT_S = 20.0
LAST_START_S = 100.0    # no sample starts later than this into a run
MIN_SAMPLES = 3         # untraced suite samples with --trace 0
MIN_TRACED = 2          # traced samples with --trace 1 (counts must repeat)

# Fixed pure-Python work, timed in its own interpreter around every suite and
# setup sample.  On a shared 2-core Xeon host (CPython 3.11) the speed one
# process sees drifted by up to 2x within minutes: between 30 s runs, median
# suite wall times spread by 10-20% and median setup times by 10-28%.  The
# drift moves the reference and the program together, and their ratios spread
# by 3-8% (suite) and 5-14% (setup).
REFERENCE = (
    "d = {}\n"
    "for i in range(500_000):\n"
    "    k = (i % 97, i % 89)\n"
    "    d[k] = d.get(k, 0) + i\n"
)
REFERENCE_S = 0.3  # median REFERENCE wall time on that host; setup_s is in its seconds


@dataclass(frozen=True)
class Workload:
    argv: tuple     # grfock command line; BENCHMARK.json says why each was chosen
    digest: str     # report_digest of its report, the same under any PYTHONHASHSEED


WORKLOADS = {
    "straighten": Workload(
        ("straighten", "--n", "2", "--size", "12"),
        "e8b8d3f3375cd88d35b97fa7a6942aafaea2176b72de8cac89a169fd10572375"),
    "fpoints": Workload(
        ("fpoints", "--p", "3", "--dim", "5"),
        "f53327926809c700dbd2e0f994db9cd3be5c3e171e6b6b6b363ac835c624bc86"),
    "pluecker-ideal": Workload(
        ("pluecker-ideal", "--k", "3", "--n", "7"),
        "711ae7ca7965acc53a3634a9a0af608863bde6fb45d41da7898559b59151bb3c"),
    "kf": Workload(
        ("kf", "--n", "2", "--size", "9"),
        "e9e7ab21263420a532a2779a712b8096d4a1a8fe587e3611962bfa324b14f089"),
}


class SetupError(RuntimeError):
    """The program cannot be started here at all; no result is printed."""


@dataclass
class Sample:
    kind: str           # "setup", "reference", "suite" or "traced"
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    detail: str = ""
    trace: dict | None = None


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(kind: str, argv: list, timeout: float, hash_seed: int) -> tuple[Sample, bytes, bytes]:
    """Run one child interpreter to completion; wall time is spawn to reaped exit."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        killed = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(hash_seed),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives the child's rusage
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if killed.is_set() and code < 0:
        detail = f"timeout after {timeout:.0f} s"
    elif code != 0:
        detail = f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}"
    else:
        detail = ""
    sample = Sample(kind, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, not detail, detail)
    return sample, stdout, stderr


def report_digest(stdout: bytes) -> str:
    """sha256 of the report as canonical JSON, without its wall_time_ms."""
    report = json.loads(stdout)
    report.pop("wall_time_ms", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def gate(sample: Sample, stdout: bytes, workload: Workload) -> None:
    """Fail the sample unless its report has the pinned digest."""
    if not sample.ok:
        return
    try:
        digest = report_digest(stdout)
    except ValueError as exc:
        sample.ok, sample.detail = False, f"unreadable report: {exc}"
        return
    if digest != workload.digest:
        sample.ok, sample.detail = False, f"report digest {digest[:16]}... is not the pinned one"


def setup_sample(hash_seed: int) -> Sample:
    sample, _, _ = spawn("setup", ["-c", "import grfock.cli"], SETUP_TIMEOUT_S, hash_seed)
    if not sample.ok:
        raise SetupError(f"cannot import grfock.cli from {SRC.name}/: {sample.detail}")
    return sample


def reference_sample() -> Sample:
    sample, _, _ = spawn("reference", ["-c", REFERENCE], SETUP_TIMEOUT_S, 0)
    if not sample.ok:
        raise SetupError(f"the reference loop failed: {sample.detail}")
    return sample


def suite_sample(workload: Workload, traced: bool, hash_seed: int) -> Sample:
    if traced:
        argv = [str(TRACER), *workload.argv]
    else:
        argv = ["-m", "grfock.cli", *workload.argv]
    sample, stdout, stderr = spawn("traced" if traced else "suite", argv, TIMEOUT_S, hash_seed)
    gate(sample, stdout, workload)
    if traced and sample.ok:
        try:
            sample.trace = json.loads(stderr.decode().strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            sample.ok, sample.detail = False, f"no trace record: {exc}"
    return sample


def collect(workload: Workload, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Samples in a fixed order until the next round would end after ``seconds``.

    Untraced rounds are setup, reference, suite; a closing reference brackets
    the last suite sample.  Traced runs alternate traced and untraced samples.
    """
    hash_seeds = random.Random(seed)
    if not (SRC / "grfock" / "cli.py").is_file():
        raise SetupError(f"no grfock sources under {SRC}")
    setup_sample(hash_seeds.randrange(2**32))  # warm-up: byte-compiles the package once
    start = time.perf_counter()
    samples: list[Sample] = []

    def count(kind):
        return sum(1 for s in samples if s.kind == kind)

    def cost(*kinds):
        return sum(statistics.median([s.wall_s for s in samples if s.kind == kind] or [0.0])
                   for kind in kinds)

    while True:
        if trace:
            kind = "traced" if count("traced") <= count("suite") else "suite"
            needed = count("traced") < MIN_TRACED or count("suite") < 1
            round_kinds = (kind,)
        else:
            kind = "suite"
            needed = count("suite") < MIN_SAMPLES
            round_kinds = ("setup", "reference", "suite")
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S or (not needed and elapsed + cost(*round_kinds) > seconds):
            break
        if not trace:
            samples.append(setup_sample(hash_seeds.randrange(2**32)))
            samples.append(reference_sample())
        samples.append(suite_sample(workload, kind == "traced", hash_seeds.randrange(2**32)))
    if not trace:
        samples.append(reference_sample())
    return samples


def relative_walls(samples: list[Sample], kind: str) -> list[float]:
    """Wall time of each good ``kind`` sample over the mean wall time of the
    nearest reference samples before and after it (one, for the first setup)."""
    out = []
    for i, s in enumerate(samples):
        if s.kind == kind and s.ok:
            before = next((r for r in reversed(samples[:i]) if r.kind == "reference"), None)
            after = next((r for r in samples[i + 1:] if r.kind == "reference"), None)
            out.append(s.wall_s / statistics.fmean(r.wall_s for r in (before, after) if r))
    return out


def _median(values):
    return statistics.median(values) if values else None


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} min={min(values):.4f} q1={q1:.4f} median={q2:.4f} "
            f"q3={q3:.4f} max={max(values):.4f} iqr/median={(q3 - q1) / q2:.3f}")


def summarize(name: str, samples: list[Sample], trace: bool) -> dict:
    """The result object; also prints every sample and metric line by line."""
    runs = [s for s in samples if s.kind in ("suite", "traced")]
    failed = [s for s in runs if not s.ok]
    wrong = [s for s in failed if not s.detail.startswith("timeout")]
    for s in samples:
        status = "ok" if s.ok else "FAILED " + s.detail
        print(f"# sample {s.kind}: wall_s={s.wall_s:.4f} cpu_s={s.cpu_s:.4f} "
              f"rss_mb={s.rss_mb:.1f} {status}")
    good = [s for s in runs if s.ok and s.kind == "suite"]
    walls = [s.wall_s for s in good]
    for kind in ("setup", "reference"):
        print(f"# {kind} wall_s spread: {_spread([s.wall_s for s in samples if s.kind == kind])}")
    print(f"# suite wall_s spread: {_spread(walls)}")
    print(f"# suite cpu_s spread: {_spread([s.cpu_s for s in good])}")
    correct = not wrong
    metrics: dict = {}
    if not trace:
        rel = relative_walls(samples, "suite")
        print(f"# suite wall_rel spread: {_spread(rel)}")
        metrics["wall_rel"] = (_median(rel), "ref")
        setup_rel = relative_walls(samples, "setup")
        print(f"# setup wall_rel spread: {_spread(setup_rel)}")
        metrics["setup_s"] = (REFERENCE_S * _median(setup_rel), "s")
        metrics["peak_rss_mb"] = (_median([s.rss_mb for s in good]), "MB")
    else:
        traced = [s for s in runs if s.kind == "traced" and s.ok]
        tables = [per_layer(s.trace, WORKLOADS[name].argv[0]) for s in traced]
        for metric, (_, unit) in (tables[0].items() if tables else ()):
            values = [t[metric][0] for t in tables]
            if None in values:
                metrics[metric] = (None, unit)
            elif unit == "count":  # a count must not depend on process state
                if len(set(values)) > 1:
                    print(f"# {metric} differs between traced samples: {values}")
                    correct = False
                metrics[metric] = (values[0], unit)
            else:
                metrics[metric] = (_median(values), unit)
        traced_wall = _median([s.wall_s for s in traced])
        if traced_wall is not None and walls:
            overhead = traced_wall - _median(walls)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / _median(walls), "ratio")
    for kind, values in (("suite", walls), ("setup", [s.wall_s for s in samples if s.kind == "setup"])):
        if values:
            print(f"{name} plain {kind} wall_s = {_median(values)} s "
                  f"(median of {len(values)}, not a metric)")
    for metric, (value, unit) in metrics.items():
        shown = "missing" if value is None else repr(value)
        print(f"{name} {metric} = {shown} {unit}")
    print(f"{name} failed_frac = {len(failed) / max(len(runs), 1)} ratio "
          f"({len(failed)} of {len(runs)} suite runs)")
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
    }


def check_digests() -> int:
    """Recompute every digest under two PYTHONHASHSEED values; 0 if all match the pins."""
    bad = 0
    for name, workload in WORKLOADS.items():
        digests = set()
        for hash_seed in (0, 1):
            sample, stdout, _ = spawn("suite", ["-m", "grfock.cli", *workload.argv],
                                      TIMEOUT_S, hash_seed)
            digests.add(report_digest(stdout) if sample.ok else sample.detail)
        status = "ok" if digests == {workload.digest} else "MISMATCH"
        bad += status != "ok"
        print(f"{name}: {status} pinned={workload.digest} computed={sorted(digests)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="re-check the pinned report digests and exit")
    args = parser.parse_args(argv)
    if args.digests:
        return check_digests()
    if args.workload is None:
        parser.error("--workload is required")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            print(f"# workload {name}: grfock {' '.join(workload.argv)}")
            samples = collect(workload, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(name, samples, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
