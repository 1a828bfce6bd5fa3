"""One workload iteration in a fresh process: import the CLI, build the inputs, run the body.

Started by ``run.py``, once per iteration, so every iteration pays what a CLI user pays on
every invocation.  It prints ``ready`` once ``locscape.cli`` is imported and the inputs are
built (the parent times process start to that line as set-up), runs the workload body once
(every CLI call in order) timing its wall and CPU seconds, checks the outputs, and writes its
measurements as JSON to ``--result``.  With ``--trace 1`` the body runs traced.

The calibration kernel (``calibration.py``) runs before the first CLI call and after every
call, outside the body's time; its times go into the result.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.REQUIRED_LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args()

    import locscape.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported locscape from {cli.__file__}, not from this checkout")
    calls = workloads.build_calls(args.workload, args.seed)
    out_dirs = [args.work / call.name for call in calls]
    print("ready", flush=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    kernel = calibration.Kernel()
    kernel()                                    # warm-up, not recorded
    cal = [kernel()]
    return_codes, wall, cpu = [], 0.0, 0.0
    for call, out in zip(calls, out_dirs):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(call.argv(out))
        except Exception:                       # an escaped error fails the call, not the run
            traceback.print_exc()
            rc = 1
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        return_codes.append(rc)
        cal.append(kernel())
    if tracer is not None:
        tracer.uninstall()
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_s": cal,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "return_codes": return_codes,
        "digests": {f"{d.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                    for d in out_dirs for p in sorted(d.glob("*.csv"))},
    }
    if tracer is not None:
        result["layers"] = tracer.summarize()
        result["sweep_solves"] = result["layers"].pop("sweep_solves")
        if args.spans:
            tracer.write_spans(args.spans)
    rep = workloads.check_outputs(args.seed, calls, out_dirs, return_codes)
    result.update(attempted=rep.attempted, failed=rep.failed, problems=rep.problems,
                  extra=rep.extra)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
