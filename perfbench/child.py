"""One fresh interpreter of the stressgrid benchmark; `run.py` starts it.

Modes (the result is written as JSON to --result):

  setup  import stressgrid and fit the builtin class models, as every CLI
         worker does; reports when it finished.
  sweep  parse --ini with `cli.parse_config`, fit the models, then call
         `cli.run_sweep` in this process (the caller sets
         STRESSGRID_THREADS=1) as often as fits in --seconds, at least once.
         Each repetition is timed, checked and digested, and followed by
         samples of the reference loop.
  cli    call `cli.main` on --ini and --out in this process, as the
         `stressgrid` command does; reports when it returned.

With --trace 1 the program is traced (see tracer.py) for the whole process
and the spans are written to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import time

T_START = time.perf_counter()

import checks  # noqa: E402  (sits beside this file)
import reference  # noqa: E402


def _setup(args, tracer) -> dict:
    from stressgrid import engine

    t_import = time.perf_counter()
    engine.load_models("builtin")
    t_done = time.perf_counter()
    return {"t_done": t_done, "import_s": t_import - T_START, "fit_s": t_done - t_import}


def _check_logs(logs, spec) -> dict:
    """Runs that failed a check, and the first few problems found."""
    base = spec.base
    problems = [
        checks.check_log(log, base.n_homes, base.horizon_hours, base.protocol_emulation)
        for log in logs
    ]
    return {
        "failed": sum(1 for p in problems if p),
        "problems": [p for ps in problems for p in ps][:5],
    }


def _sweep(args, tracer) -> dict:
    from stressgrid import cli, engine

    if tracer:
        tracer.install()
    spec = cli.parse_config(args.ini)
    engine.load_models(spec.base.data_dir)
    reps = []
    t_window = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        logs = cli.run_sweep(spec, quiet=True)
        t1 = time.perf_counter()
        reps.append({
            "wall_s": t1 - t0,
            "reference_s": reference.samples(t1 - t0),
            "runs": len(logs),
            **_check_logs(logs, spec),
            "digest": checks.log_digest(logs),
            "counts": checks.log_counts(logs),
        })
        if (t1 - t_window) + (t1 - t0) > args.seconds:  # the next would overrun
            break
    result = {"reps": reps}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary(region=(t0, t1))
    return result


def _cli(args, tracer) -> dict:
    from stressgrid import cli

    if tracer:
        tracer.install()
    status = cli.main(["--config", args.ini, "--out", args.out, "--quiet"])
    t_done = time.perf_counter()
    result = {"status": status, "t_done": t_done}
    if tracer:
        tracer.uninstall()
        (logs,) = tracer.returns["cli.run_sweep"]
        written = tracer.returns["metrics.write_report"][0] if status == 0 else []
        result.update({
            **_check_logs(logs, cli.parse_config(args.ini)),
            "counts": checks.log_counts(logs),
            "files_written": len(written),
            "bytes_written": sum(os.path.getsize(p) for p in written),
            "trace": tracer.summary(),
        })
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep", "cli"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--ini")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import stressgrid.cli  # noqa: F401  (every module must be loaded to patch it)
        from tracer import Tracer

        tracer = Tracer()
    result = {"setup": _setup, "sweep": _sweep, "cli": _cli}[args.mode](args, tracer)
    if tracer and args.spans:
        tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
