"""Run `echonet` in this process as its console script would, for one timed job.

    python3 perfbench/child.py REPORT_FILE TRACE_FILE|- ECHONET_ARGS...

Before handing over to `echonet.cli.main`, it wraps the first pipeline stage
to note `time.monotonic()` on entry; the parent subtracts its spawn time to
get set-up time. When the run ends it writes that stamp and the process's
peak RSS to REPORT_FILE as JSON. The peak comes from VmHWM, which counts only
this process's own memory: `ru_maxrss` would also count the parent's memory
at spawn. With a TRACE_FILE it also installs the span tracer and writes the
trace there when the run ends.
"""

import json
import resource
import sys
import time

from echonet import cli, pipeline


def _mark_first_stage(report: dict) -> None:
    first = pipeline.STAGES[0]
    inner = pipeline._STAGE_FUNCS[first]

    def entered(config, outdir):
        report["first_stage"] = time.monotonic()
        return inner(config, outdir)

    pipeline._STAGE_FUNCS[first] = entered


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(argv: list[str], trace_path: str) -> int:
    if trace_path == "-":
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer(run_id=trace_path)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


def main() -> int:
    report_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report: dict = {}
    _mark_first_stage(report)
    try:
        return _run(argv, trace_path)
    finally:
        report["peak_rss_kb"] = _peak_rss_kb()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
