"""locscape benchmark: CLI workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-1d --seed 0 --seconds 20 --trace 0

Each iteration of a workload runs in a fresh Python process (``worker.py``) that imports
``locscape.cli`` from ``src/`` and calls ``locscape.cli.main`` with ``--threads 1`` (see
``workloads.py`` for the calls); iterations repeat until ``--seconds`` have passed.  Times
are scaled to a reference host speed by a calibration kernel timed between the calls (see
``calibration.py``).  With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run.  The lines before it report the same figures with the raw times, the failure fraction,
the CSV digests and the machine.  ``attempted`` counts the operations of one workload body
at the seed (every iteration repeats the same operations on the same inputs) and ``failed``
the median over iterations of how many of them failed.  The exit code is non-zero when an
output check fails, and no result is printed when the checkout holds no ``src/locscape``.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads(tracing.BENCHMARK.read_text())   # metric names, units and order

RUN_LIMIT_S = 170.0         # a run that is still going after this is stopped as failed
# the CLI runs with --threads 1, so the BLAS does too, whatever the machine's core count
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _iteration(args, env, work, traced, limit):
    """Run one body in a fresh worker; return its set-up seconds, total seconds and result.

    ``limit`` is the ``perf_counter`` time by which the worker must have finished.
    """
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--work", str(work),
           "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(work.parent.parent / f"{args.workload}-spans.npz")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if (not sel.select(max(0.0, limit - t0))
                    or proc.stdout.readline().strip() != "ready"):
                raise RuntimeError("workload process did not become ready")
        setup = time.perf_counter() - t0
        rc = proc.wait(timeout=max(0.0, limit - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0:
        raise RuntimeError(f"workload process exited with {rc}")
    res = json.loads(result_path.read_text())
    return setup, time.perf_counter() - t0, res


def _machine():
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        cache[f"L{read(index / 'level')}"] = read(index / "size")
    return (f"nproc {os.cpu_count()}, {cpu}, L2 {cache.get('L2', '?')}, L3 {cache.get('L3', '?')}, "
            f"python {platform.python_version()}, workers run with {BLAS_THREADS}")


def run(args):
    """Fresh-process iterations until ``args.seconds`` pass; with tracing, alternately traced."""
    env = dict(os.environ, **BLAS_THREADS, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    limit = time.perf_counter() + RUN_LIMIT_S
    iterations = {False: [], True: []}          # worker results by traced
    last_total = {}
    try:
        for i in itertools.count():
            traced = bool(args.trace) and i % 2 == 1
            # one iteration of each kind always runs; after that, start one only if an
            # iteration as long as the last of its kind would end before the deadline
            if traced in last_total and time.perf_counter() + last_total[traced] > deadline:
                break
            work = run_dir / f"iteration-{i}"
            work.mkdir(parents=True)
            setup, last_total[traced], res = _iteration(args, env, work, traced, limit)
            res["setup_s"] = setup
            iterations[traced].append(res)
            shutil.rmtree(work)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return iterations[False], iterations[True]


def _differing(results):
    """CSV files whose digest in some iteration differs from the first iteration's."""
    first = results[0]["digests"]
    return sorted({name for res in results[1:] for name in set(first) | set(res["digests"])
                   if res["digests"].get(name) != first.get(name)})


def _scaled(iterations, key):
    """Median over iterations of a raw time scaled by the iteration's speed factor."""
    return statistics.median(calibration.speed_factor(res["cal_s"]) * res[key]
                             for res in iterations)


def _layers(args, untraced, traced, problems):
    """Median per-layer metrics over the traced iterations, with the binding guards."""
    layers = [res["layers"] for res in traced]
    metrics = {}
    for m in BENCHMARK["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            value = _scaled(traced, "wall_s") - _scaled(untraced, "wall_s")
        else:
            values = [layer[name] for layer in layers]
            if unit != "count":
                value = statistics.median(values)
            else:
                value = statistics.median_low(values)
                # failed trials may differ between reruns: the program's determinism defect
                if len(set(values)) != 1 and name != "experiments.failed_trials":
                    problems.append(f"count {name} differs between traced iterations: {values}")
        metrics[name] = {"value": value, "unit": unit}
    for layer in workloads.REQUIRED_LAYERS[args.workload]:
        if metrics[layer + ".calls"]["value"] == 0:
            problems.append(f"layer {layer} recorded no calls on {args.workload}; "
                            "a binding was missed")
    trials = sum(c.trials or 0 for c in workloads.build_calls(args.workload, args.seed))
    if metrics["experiments.run_trial.calls"]["value"] != trials:
        problems.append(f"experiments.run_trial.calls is "
                        f"{metrics['experiments.run_trial.calls']['value']}, "
                        f"{trials} trials attempted")
    return metrics


def report(args, untraced, traced):
    results = untraced + traced
    # one body's operations; every iteration repeats them on the same inputs
    attempted = results[0]["attempted"]
    failures = [res["failed"] for res in results]
    failed = statistics.median_low(failures)
    problems = sorted({p for res in results for p in res["problems"]})
    wall = _scaled(untraced, "wall_s")
    unit = workloads.WORK_UNITS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(results)} of {results[0]['attempted']} {unit}")
    print(f"machine: {_machine()}")
    print(f"untraced body times, raw (s): {[round(res['wall_s'], 4) for res in untraced]}")
    print(f"untraced body CPU times (s): {[round(res['cpu_s'], 4) for res in untraced]}")
    print(f"set-up times, raw (s): {[round(res['setup_s'], 4) for res in results]}")
    print(f"calibration kernel times (s): "
          f"{[[round(c, 4) for c in res['cal_s']] for res in results]}")
    speeds = [round(calibration.speed_factor(res["cal_s"]), 4) for res in results]
    print(f"speed factors (reference kernel time {calibration.REFERENCE_S} s over the "
          f"iteration's mean): {speeds}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} operations "
          f"failed; failed operations in each of {len(results)} bodies: {failures})")
    for key, value in results[0]["extra"].items():
        print(f"{key} {value!r} ratio (recorded, not gated)")
    for name, sha in sorted(results[0]["digests"].items()):
        print(f"csv sha256 {name} {sha}")
    digest = hashlib.sha256(json.dumps(results[0]["digests"], sort_keys=True).encode())
    print(f"csv digest {digest.hexdigest()}")
    differing = _differing(results)
    if differing:
        # the CLI promises byte-identical CSV bodies for a fixed config and seed; a
        # difference is a program defect, reported here, while `correct` stays about values
        print(f"DETERMINISM: CSV bodies differ between fresh-process reruns: {differing}")
        if len(set(failures)) > 1:
            print(f"DETERMINISM: failed operations differ between fresh-process reruns: "
                  f"{failures}")
    else:
        print(f"determinism: CSV bodies identical over {len(results)} fresh-process reruns")
    if args.trace:
        print(f"traced body times, raw (s): {[round(res['wall_s'], 4) for res in traced]}")
        if traced[0]["sweep_solves"]:
            print(f"ring solves per sweep: {traced[0]['sweep_solves']} "
                  "(74 at the reference geometry when this benchmark was defined)")
        metrics = _layers(args, untraced, traced, problems)
    else:
        values = {
            "wall_s": wall,
            "setup_s": _scaled(untraced, "setup_s"),
            "work_per_s": results[0]["attempted"] / wall,
            "peak_rss_mb": statistics.median(res["peak_rss_kib"] for res in results) / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.REQUIRED_LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")
    if not (ROOT / "src" / "locscape" / "cli.py").is_file():
        print(f"no locscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        untraced, traced = run(args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return report(args, untraced, traced)


if __name__ == "__main__":
    sys.exit(main())
