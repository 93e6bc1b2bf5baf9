"""Run one beamsim CLI invocation in this process and report how it went.

Usage: child.py MODE RESULT_JSON SPANS_JSON -- BEAMSIM_ARGS...

MODE is one of
  plain  run the command; note when each realization starts
  trace  the same, with every layer wrapped (see tracer.py); the spans are
         written to SPANS_JSON at exit

The result file holds, for the start of every realization (every
``channel.sample_channel`` call), a CLOCK_MONOTONIC timestamp
(``time.perf_counter``, shared with the parent process on Linux) and the
process CPU time so far. It also holds the exit code, the CPU time of this
process and its children at the end, and the peak resident set size. It
is written even when the command fails.
"""

import json
import resource
import sys
import time
import traceback

def _peak_rss_kb(self_ru) -> int:
    """Peak RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` of RUSAGE_SELF also counts the parent's address space as
    it was when the parent forked this process, so it reads high when the
    parent is large.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return self_ru.ru_maxrss


def _usage():
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + kids_ru.ru_utime + kids_ru.ru_stime
    return cpu, max(_peak_rss_kb(self_ru), kids_ru.ru_maxrss)


def main() -> int:
    sep = sys.argv.index("--")
    mode, result_path, spans_path = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]
    if mode not in ("plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")

    from beamsim import channel, cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    starts, cpu_starts = [], []
    sample_channel = channel.sample_channel

    def timed_sample_channel(*args, **kwargs):
        starts.append(time.perf_counter())
        cpu_starts.append(time.process_time())
        return sample_channel(*args, **kwargs)

    channel.sample_channel = timed_sample_channel

    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001  (the failure is reported, not raised)
        traceback.print_exc()
        rc = 1
    cpu_s, maxrss_kb = _usage()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({
            "rc": rc, "t_realizations": starts,
            "cpu_realizations": cpu_starts,
            "cpu_s": cpu_s, "maxrss_kb": maxrss_kb, "beamsim": cli.__file__,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
