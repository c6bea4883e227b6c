"""The mppkit benchmark: one workload, as a closed loop of fresh CLI processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it finds the checkout from its own
path and reads and writes only there (scratch files under .perfbench_out/).

One client starts one ``mppkit`` process at a time, each after the previous
one has exited, so at most two processes (this one, waiting, and the
child) and one BLAS thread exist at once, both pinned to one CPU.  Before any
timing it writes the workload's inputs for ``--seed`` with inputs.py, then
times ``SETUP_REPEATS`` fresh interpreters importing ``mppkit.cli``.  It then
starts invocations until the next one would end past ``--seconds`` (at least
two, so that the repeat check has a pair), checks every invocation's outputs,
and prints the end-to-end metrics as medians with their sample counts.  Times
are scaled to a reference core speed measured alongside each call (see spawn
and at_reference_speed); the raw ones are in the results file.  Its last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the loop alternates one untraced and two traced
invocations (see tracer.py) and reports the per-layer metrics instead:
medians over the traced invocations, plus ``trace.overhead_s``, the traced
median wall time minus the untraced one.  A full record of each call goes to
``.perfbench_out/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import per_layer_units
from workloads import DEFAULT_SEED, RECIPES, WORKLOADS, CheckFailed, check, output_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"  # given to children as an absolute path: a relative one breaks under another cwd
SCRATCH = ROOT / ".perfbench_out"
REQUIRED = (SRC / "mppkit" / "cli.py", ROOT / "tests" / "fixtures" / "fixture_config.json")

SETUP_REPEATS = 9
SETUP_BURST = 10  # probes on the idle core between imports
MIN_UNTRACED = 2
TRACED_PATTERN = "UTT"  # untraced, traced, traced, and again
RUN_BUDGET_S = 170.0  # hard end of one whole run, set-up included
INVOCATION_TIMEOUT_S = 120.0
# The host's per-core speed switches between levels 1.4-2x apart, for seconds
# to minutes at a time, so raw wall times of one build spread past any useful
# bound.  Every call is therefore timed together with a speed probe run on the
# same CPU, and reported at a fixed reference speed (at_reference_speed).
# REFERENCE_PROBE_S is about the probe's time, while it shares a core with a
# benchmark call, in the slower state of the Xeon (Sapphire Rapids, KVM) host
# the bounds were set on.  The probe costs the child about 1.5% of its CPU.
PROBE_LOOPS = 2000
PROBE_SUMS = 5
PROBE_FLOATS = [i / 7.0 for i in range(20_000)]
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 1.3e-3
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def speed_probe() -> float:
    """CPU seconds this thread spends on a fixed piece of work.

    Half is bytecode, like the Python loops of the fits; half is a C loop over
    float objects, like the numpy kernels on small arrays.  Either half alone
    tracks one kind of workload and over- or under-corrects the other.
    """
    start = time.thread_time()
    acc, table = 0.0, {}
    for i in range(PROBE_LOOPS):
        table[i & 63] = acc
        acc += (i % 7) * 0.5 - table.get((i + 1) & 63, 0.0) * 1e-3
    for _ in range(PROBE_SUMS):
        acc += sum(PROBE_FLOATS)
    return time.thread_time() - start


def spawn(cmd: list[str], cwd: Path, env: dict, timeout: float) -> dict:
    """Run one process to its end; wall time, peak memory, exit code, output.

    While it waits, this process (pinned to the child's CPU) runs
    ``speed_probe`` every ``PROBE_INTERVAL_S`` and keeps the results in
    ``probes`` for ``at_reference_speed``.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    probes: list[float] = []
    timed_out = False

    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                end = start + max(timeout, 0.01)
                while True:
                    left = end - time.perf_counter()
                    if left <= 0:
                        timed_out = True
                        proc.kill()
                        break
                    if select.select([exited], [], [], min(PROBE_INTERVAL_S, left))[0]:
                        break
                    probes.append(speed_probe())
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    probes.append(speed_probe())  # a call shorter than the interval still gets one
    return {
        "wall_s": wall,
        "probes": probes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def at_reference_speed(wall: float, probes: list[float]) -> float:
    """`wall` as it would read at the core speed where the probe takes REFERENCE_PROBE_S.

    The work done in `wall` is its integral over the core's speed, and the
    probes sample that speed at even steps, so the scale factor is the mean
    of 1/probe, with the tenth of the probes at either end dropped (a probe
    that the child pre-empted in a cold cache reads slow).  A median would
    pick one speed level when the core switches between two.
    """
    speeds = sorted(1.0 / p for p in probes)
    cut = len(speeds) // 10
    return wall * REFERENCE_PROBE_S * statistics.fmean(speeds[cut:len(speeds) - cut])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    # children inherit this: the probe then reads the speed of the child's core
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    py = sys.executable

    gen = subprocess.run(
        [py, str(HERE / "inputs.py"), workload, str(seed), str(work)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if gen.returncode != 0:
        raise RuntimeError(f"input generator failed:\n{gen.stderr}")
    prepared = json.loads(gen.stdout)
    out_dir = work / prepared["out_dir"] if prepared["out_dir"] else None

    # an import gets too few probes of its own: each also takes the bursts
    # taken on the idle core just before and after it
    bursts = [[speed_probe() for _ in range(SETUP_BURST)]]
    imports = []
    for _ in range(SETUP_REPEATS):
        res = spawn([py, "-c", "import mppkit.cli"], work, env, INVOCATION_TIMEOUT_S)
        if res["exit_code"] != 0:
            raise RuntimeError(f"importing mppkit.cli failed:\n{res['stderr'].decode()}")
        imports.append(res)
        bursts.append([speed_probe() for _ in range(SETUP_BURST)])
    setup = [at_reference_speed(res["wall_s"], bursts[i] + res["probes"] + bursts[i + 1])
             for i, res in enumerate(imports)]
    raw_setup = [res["wall_s"] for res in imports]

    calls: list[dict] = []
    first_digest = None
    minimum = len(TRACED_PATTERN) if trace else MIN_UNTRACED
    loop_start = time.perf_counter()
    while True:
        traced = trace and TRACED_PATTERN[len(calls) % len(TRACED_PATTERN)] == "T"
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        spans = work / f".spans-{len(calls)}.json"
        cmd = [py, "-m", "mppkit.cli", *prepared["argv"]]
        if traced:
            run_id = f"{workload}-{seed}-{len(calls)}"
            cmd = [py, str(HERE / "tracer.py"), "trace", "--spans", str(spans),
                   "--run-id", run_id, "--", *prepared["argv"]]
        timeout = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
        res = spawn(cmd, work, env, timeout)
        call = {"kind": "traced" if traced else "untraced",
                "wall_s": at_reference_speed(res["wall_s"], res["probes"]),
                "raw_wall_s": res["wall_s"], "probes": len(res["probes"]),
                "peak_rss_mb": res["peak_rss_mb"], "exit_code": res["exit_code"],
                "error": None, "spans": str(spans) if traced else None}
        try:
            if res["timed_out"]:
                raise CheckFailed(f"timed out after {timeout:.0f} s")
            if res["exit_code"] != 0:
                raise CheckFailed(f"exit code {res['exit_code']}: {res['stderr'].decode()[-500:]}")
            check(workload, work, prepared, res["stdout"].decode())
            digest = output_digest(work, prepared, res["stdout"])
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                raise CheckFailed("outputs differ from the first invocation of this seed")
        except CheckFailed as exc:
            call["error"] = str(exc)
        calls.append(call)

        now = time.perf_counter()
        if now + res["wall_s"] > deadline:
            break
        if len(calls) >= minimum and now - loop_start + res["wall_s"] > seconds:
            break

    layer = None
    if trace:
        good = [c for c in calls if c["kind"] == "traced" and c["error"] is None]
        if good:
            proc = subprocess.run(
                [py, str(HERE / "tracer.py"), "metrics", *(c["spans"] for c in good)],
                env=env, capture_output=True, text=True,
                timeout=max(deadline - time.perf_counter(), 1.0),
            )
            if proc.returncode == 0:
                layer = json.loads(proc.stdout)
            else:
                good[-1]["error"] = proc.stderr.strip() or "per-layer metrics failed"

    return {"prepared": prepared, "setup": setup, "raw_setup": raw_setup, "calls": calls,
            "layer": layer, "cpu": cpu, "numpy": prepared.get("numpy", "unknown")}


def summarize(trace: bool, raw: dict) -> tuple[dict, dict]:
    """(metrics as printed, the same with sample counts for the results file).

    A metric with no successful sample is None; the run then reports failures.
    """
    calls = raw["calls"]
    ok = [c for c in calls if c["error"] is None]
    untraced = [c for c in ok if c["kind"] == "untraced"]
    detailed: dict[str, dict] = {}
    if not trace:
        samples = {
            "wall_s": [c["wall_s"] for c in untraced],
            "setup_s": raw["setup"],
            "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
        }
        for name, unit in END_TO_END.items():
            values = samples[name]
            detailed[name] = {"value": statistics.median(values) if values else None,
                              "unit": unit, "n": len(values)}
    else:
        traced = [c for c in ok if c["kind"] == "traced"]
        layer = raw["layer"] or {}
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_s":
                value = (statistics.median(c["wall_s"] for c in traced)
                         - statistics.median(c["wall_s"] for c in untraced)
                         if traced and untraced else None)
            else:
                value = layer.get(name)
            detailed[name] = {"value": value, "unit": unit, "n": len(traced)}
    printed = {name: {"value": m["value"], "unit": m["unit"]} for name, m in detailed.items()}
    return printed, detailed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not an mppkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = raw["calls"]
    failed = sum(1 for c in calls if c["error"] is not None)
    printed, detailed = summarize(bool(args.trace), raw)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "recipe": RECIPES[args.workload],
        "environment": environment(raw["numpy"]),
        "attempted": len(calls), "failed": failed, "error_rate": failed / len(calls),
        "setup_samples_s": raw["setup"], "raw_setup_samples_s": raw["raw_setup"],
        "cpu": raw["cpu"],
        "invocations": [{k: v for k, v in c.items() if k != "spans"} for c in calls],
        "metrics": detailed,
    }
    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(calls)} invocation(s), {failed} failed")
    for name, m in detailed.items():
        value = "none" if m["value"] is None else f"{m['value']:.6f}"
        print(f"  {name:<44} {value:>14} {m['unit']:<6} (median of {m['n']})")
    print(f"  {'error_rate':<44} {failed / len(calls):>14.6f}        ({failed} of {len(calls)})")
    for c in calls:
        if c["error"] is not None:
            print(f"  check failed ({c['kind']}): {c['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
