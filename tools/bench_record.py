"""Run the benchmark once and append its result to ``BENCH_<workload>.json``.

Run from anywhere:

    python3 tools/bench_record.py --workload cd-grid --seed 301 --seconds 20 \\
        --label change --pair 0 --order 1 [--tree CHECKOUT]

It runs ``bench/run.py --trace 0`` of CHECKOUT (by default the checkout this file is
in) as a child, unchanged, and measures nothing itself.  The records go to this
checkout's ``BENCH_<workload>.json``, one JSON object per line.  A record is appended
with one write and never rewritten.  It holds:

* ``last_line``: the child's last stdout line, as is (the metrics as JSON);
* ``tree``: the git tree hashes of CHECKOUT's ``src/`` and ``bench/``, of the files
  on disk that git does not ignore, so that an uncommitted tree is hashed as it is;
* the date, the workload, the seed, the seconds, and the label, pair and order
  (``--order 1`` for the run that came first in its pair);
* ``env``: ``nproc``, the CPU model, and the Python and numpy versions.

After appending, it writes to stderr the count, median and quartiles (``statistics``'
defaults) of each end-to-end metric over the set that the new record belongs to: the file's
records with its label, ``src/`` tree hash and seconds.  Its stdout is the record's line.

Compare records taken close together in time: a shared host can change speed within minutes.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # where the records go


def tree_hash(checkout: Path, top: str) -> str:
    """The git tree hash of ``checkout/top`` as on disk, over the files git does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard", "--", top],
                            cwd=checkout, capture_output=True, check=True).stdout
    tree: dict = {}
    for name in listed.decode().split("\0"):
        if name and (checkout / name).is_file():  # a tracked file may be deleted on disk
            *dirs, leaf = name.split("/")[1:]
            node = tree
            for part in dirs:
                node = node.setdefault(part, {})
            node[leaf] = checkout / name

    def digest(node: dict) -> bytes:
        body = b""
        for name in sorted(node, key=lambda k: k + "/" if isinstance(node[k], dict) else k):
            child = node[name]
            if isinstance(child, dict):
                mode, sha = b"40000", digest(child)
            else:
                data = child.read_bytes()
                mode = b"100755" if os.access(child, os.X_OK) else b"100644"
                sha = hashlib.sha1(b"blob %d\0%s" % (len(data), data)).digest()
            body += b"%s %s\0%s" % (mode, name.encode(), sha)
        return hashlib.sha1(b"tree %d\0%s" % (len(body), body)).digest()

    return digest(tree).hex()


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ModuleNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version}


def report(out: Path, record: dict) -> None:
    """Write to stderr the count, median and quartiles of each metric of ``record``'s set."""
    key = (record["label"], record["tree"]["src"], record["seconds"])
    values: dict[str, list[float]] = {}
    count = 0
    for line in out.read_text(encoding="utf-8").splitlines():
        other = json.loads(line)
        if (other.get("label"), other.get("tree", {}).get("src"), other.get("seconds")) != key:
            continue
        count += 1
        for name, metric in json.loads(other["last_line"]).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    print(f"label {key[0]!r}, src tree {key[1]}, {key[2]!r} s: {count} records",
          file=sys.stderr)
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        print(f"  {name}: {len(xs)} values, median {statistics.median(xs)!r},"
              f" quartiles {q1!r} {q3!r}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True, help="what CHECKOUT is, e.g. parent or change")
    parser.add_argument("--pair", type=int, required=True, help="the pair's number in its set")
    parser.add_argument("--order", type=int, choices=(1, 2), required=True,
                        help="1 if this run came first in its pair, else 2")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to benchmark")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.workload}.json"
    if out.exists() and out.stat().st_size and not out.read_bytes().endswith(b"\n"):
        print(f"error: {out} does not end with a newline; not appending", file=sys.stderr)
        return 1
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    tree = {top: tree_hash(args.tree, top) for top in ("src", "bench")}
    child = subprocess.run([sys.executable, "bench/run.py", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", repr(args.seconds),
                            "--trace", "0"], cwd=args.tree, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    if child.returncode or not lines:
        print(f"error: the benchmark exited {child.returncode} with {len(lines)} stdout lines;"
              " nothing recorded", file=sys.stderr)
        return 1
    record = {"date": date, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "label": args.label, "pair": args.pair,
              "order": args.order, "tree": tree, "env": environment(), "last_line": lines[-1]}
    line = json.dumps(record) + "\n"
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(line)
    print(line, end="")
    report(out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
