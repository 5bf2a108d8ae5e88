"""Benchmark of oneroot: closed-roof, oracle-roof and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-roof --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of the named workload (``all``
runs the three in turn, each in a child process, one result line each).
``--setup-only`` times one cold set-up of the workload and prints it; a run
starts SETUP_PROBES of these after its timed phase (see ``setup_s``).
``--trace 1`` runs one traced round of every workload and prints the
per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. See perfbench/README.md.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed-roof", "oracle-roof", "cli")
# setup_s is the fastest of the run's own cold set-up and this many more, each
# in a fresh process: one cold set-up of ~0.6 s varied by up to 2x with the
# shared host's phases, and medians of ten of them by up to 30% between sets
SETUP_PROBES = 4


def since_start() -> float:
    """Seconds since the first line of this script ran (``setup_s``)."""
    return perf_counter() - _T0


def _result_line(res) -> dict:
    return {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}}


def _report(name: str, res, trace: int, seed: int) -> dict:
    for key, (value, unit) in res.metrics.items():
        print(f"{name:12s} {key:48s} {value:14.6g} {unit}")
    print(f"{name:12s} attempted {res.attempted} failed {res.failed} correct {res.correct}")
    for problem in res.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    line = _result_line(res)
    with open(os.path.join(out, f"result-{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**line, "details": res.details, "problems": res.problems}, fh, indent=1)
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up of the workload, print it and stop")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if args.workload == "all" and not args.trace:
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oneroot", "__init__.py")):
        print(f"error: no oneroot sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import oneroot
    if not os.path.abspath(oneroot.__file__).startswith(src + os.sep):
        print(f"error: imported oneroot from {oneroot.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads as wl
    if args.setup_only:
        wl.setup(args.workload, args.seed, ROOT)
        print(json.dumps({"setup_s": since_start()}))
        return 0
    name = "traced" if args.trace else args.workload
    if args.trace:
        res = wl.traced(args.seed, ROOT)
    elif name == "closed-roof":
        res = wl.closed_roof(args.seed, args.seconds, since_start)
    elif name == "oracle-roof":
        res = wl.oracle_roof(args.seed, args.seconds, since_start)
    else:
        res = wl.cli(args.seed, args.seconds, since_start, ROOT)
    if not args.trace:
        each = [res.metrics["setup_s"][0]] + _setup_probes(name, args.seed)
        res.metrics["setup_s"] = (min(each), "s")
        res.details["setup_s_each"] = each
    line = _report(name, res, args.trace, args.seed)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _setup_probes(name: str, seed: int) -> list[float]:
    """setup_s of SETUP_PROBES cold set-ups, one fresh process after another."""
    each = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        each.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return each


def _run_all(args) -> int:
    """Each workload in a child process of its own, so that each one's set-up
    is cold and its peak RSS its own; relays the children's output, adding a
    ``workload`` key to each result line."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 2
        for text in lines[:-1]:
            print(text)
        print(json.dumps({"workload": name, **line}))
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
