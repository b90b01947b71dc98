"""Run one netadopt CLI experiment in a fresh interpreter and report its cost.

Usage: python3 child.py SRC_DIR T0 TRACE CLI_ARGS...

T0 is the parent's time.monotonic() just before it started this process,
so set-up time covers interpreter start and `import netadopt.cli`.  TRACE 1
installs the layer wrappers of layertrace.py before the run.  Times are
raw; run.py scales them.  peak_rss_mb is the process's peak resident
memory minus its resident memory right after the import: what the run
itself adds.  process_peak_rss_mb is the whole peak.  The last line of
standard output is one JSON object.
"""

import time
import sys

import netadopt.cli

SETUP_S = time.monotonic() - float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def resident_kib() -> float:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024


def main(argv) -> int:
    src, trace, cli_args = argv[1], argv[3] == "1", argv[4:]
    module = os.path.realpath(netadopt.cli.__file__)
    if not module.startswith(os.path.realpath(src) + os.sep):
        print(f"netadopt imported from {module}, not from {src}",
              file=sys.stderr)
        return 4
    import_rss_kib = resident_kib()
    tracer = None
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    report = {"exit": netadopt.cli.main(cli_args)}
    report["run_s"] = time.perf_counter() - wall0
    report["cpu_s"] = time.process_time() - cpu0
    report["setup_s"] = SETUP_S
    # ru_maxrss is in KiB on Linux.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["peak_rss_mb"] = (peak_kib - import_rss_kib) / 1024
    report["process_peak_rss_mb"] = peak_kib / 1024
    if tracer is not None:
        report["layers"] = layertrace.layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
