"""Byte-identity harness: one command to show that a change keeps every
output of the `spn` commands.

    python3 tools/identity.py MANIFEST            run the full list
    python3 tools/identity.py --compare A B       name the entries that differ

The first form runs a fixed, seeded list of in-process `cli.main` calls in a
fresh directory and writes a sorted sha256 manifest: one line per command
(its exit code, stdout and stderr) and one per file the commands wrote.
Wall times are dropped: the `seconds` column of metrics.csv and the
`(N.NNNs)` of `spn train`'s epoch lines. It exits 1 if the two `train` runs that
differ only in their process count wrote different files.

Run it in the parent's tree and in the change's on one host, then compare.
Never compare against digests from another machine: OpenBLAS picks its GEMM
kernels by CPU, so their bits may differ there.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import os
import re
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spnkit import cli, training  # noqa: E402

TINY = ("--widths", "3,4,5", "--prop-channels", "3", "--units", "1")
CK3, CK1 = "train-three-w1/best", "train-one/best"
ITEM = ("--image", "ds/images/0008.ppm", "--coarse", "ds/coarse/0008.spnt")
TRUTH = ("--truth", "ds/masks/0008.pgm")
ITEM256 = ("--image", "ds256/images/0001.ppm", "--coarse", "ds256/coarse/0001.spnt",
           "--truth", "ds256/masks/0001.pgm")

# (name, argv, training processes or None); paths are relative to the run
# directory, so that no output names it
FULL = [
    ("gen-data", ("gen-data", "--out", "ds", "--size", "32", "--train", "8",
                  "--val", "2", "--seed", "7"), None),
    ("gen-data-check", ("gen-data", "--out", "ds", "--check"), None),
    ("train-three-w1", ("train", "--data", "ds", "--out", "train-three-w1",
                        "--epochs", "3"), 1),
    ("train-three-w2", ("train", "--data", "ds", "--out", "train-three-w2",
                        "--epochs", "3"), 2),
    ("train-one", ("train", "--data", "ds", "--out", "train-one", "--epochs", "3",
                   "--kind", "one"), 1),
    ("eval-val", ("eval", "--checkpoint", CK3, "--data", "ds"), None),
    ("eval-train-restrict", ("eval", "--checkpoint", CK3, "--data", "ds",
                             "--split", "train", "--restrict"), None),
    *((f"refine-{kind}{tag}", ("refine", "--checkpoint", ck, *ITEM,
                               "--out", f"refine-{kind}{tag}.pgm", *extra), None)
      for kind, ck in (("three", CK3), ("one", CK1))
      for tag, extra in (("", ()), ("-truth", TRUTH),
                         ("-truth-restrict", (*TRUTH, "--restrict")))),
    # a 128x128 scan grid is several of the scan's chunks of steps
    ("gen-data-256", ("gen-data", "--out", "ds256", "--size", "256", "--train", "1",
                      "--val", "1", "--seed", "7"), None),
    *((f"refine-{kind}-256", ("refine", "--checkpoint", ck, *ITEM256,
                              "--out", f"refine-{kind}-256.pgm"), None)
      for kind, ck in (("three", CK3), ("one", CK1))),
    ("eval-256", ("eval", "--checkpoint", CK3, "--data", "ds256"), None),
    ("affinity", ("affinity", "--out-csv", "affinity.csv", "--save", "affinity.spnt"),
     None),
    # non-square with two channels: C·N² entries
    ("affinity-5x9-c2-one", ("affinity", "--height", "5", "--width", "9", "--channels",
                             "2", "--kind", "one", "--out-csv", "affinity-5x9.csv",
                             "--save", "affinity-5x9.spnt"), None),
    ("impulse", ("impulse", "--out", "impulse.spnt"), None),
    ("verify", ("verify",), None),
    ("verify-one-32", ("verify", "--kind", "one", "--bits", "32"), None),
    *((f"verify-fault-{fault}", ("verify", "--inject-fault", fault), None)
      for fault in ("boundary", "unprojected", "scan-perturb")),
    ("gradcheck", ("gradcheck",), None),
    ("gradcheck-perturb-backward", ("gradcheck", "--perturb-backward"), None),
    ("gradcheck-seed3-coords400", ("gradcheck", "--seed", "3", "--coords", "400"),
     None),
    ("gradcheck-eps1e-5", ("gradcheck", "--eps", "1e-5"), None),
]

# a second's worth for the test suite: data, one tiny training run, a refine
REDUCED = [
    ("gen-data", ("gen-data", "--out", "ds", "--size", "16", "--train", "2",
                  "--val", "1"), None),
    ("train", ("train", "--data", "ds", "--out", "run", "--epochs", "1", *TINY), 1),
    ("refine", ("refine", "--checkpoint", "run/best", "--image", "ds/images/0002.ppm",
                "--coarse", "ds/coarse/0002.spnt", "--out", "pred.pgm",
                "--truth", "ds/masks/0002.pgm"), None),
]

_SECONDS = re.compile(rb"\(\d+\.\d+s\)")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "metrics.csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode())))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def run_entries(entries, work) -> dict:
    """Run `entries` in the directory `work` and return the manifest as
    {key: sha256}: "cmd <name>" for each command, "file <path>" for each
    file under `work`."""
    work = Path(work)
    digests = {}
    cwd = os.getcwd()
    train = training.train
    os.chdir(work)
    try:
        for name, argv, processes in entries:
            training.train = (train if processes is None
                              else functools.partial(train, workers=processes))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            record = f"exit {rc}\n{out.getvalue()}\n{err.getvalue()}".encode()
            digests[f"cmd {name}"] = _sha(_SECONDS.sub(b"(s)", record))
    finally:
        training.train = train
        os.chdir(cwd)
    for path in sorted(work.rglob("*")):
        if path.is_file():
            digests[f"file {path.relative_to(work).as_posix()}"] = _sha(_file_bytes(path))
    return digests


def write_manifest(path, digests: dict) -> None:
    Path(path).write_text("".join(f"{digests[k]}  {k}\n" for k in sorted(digests)))


def read_manifest(path) -> dict:
    digests = {}
    for line in Path(path).read_text().splitlines():
        sha, _, key = line.partition("  ")
        digests[key] = sha
    return digests


def compare(a: dict, b: dict) -> list:
    """Every key whose digest differs or that only one manifest has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _run_files(digests: dict, run: str) -> dict:
    prefix = f"file {run}/"
    return {k[len(prefix):]: v for k, v in digests.items() if k.startswith(prefix)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("manifest", nargs="?", help="where to write the manifest")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        differ = compare(*map(read_manifest, args.compare))
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(differ)} of {len(read_manifest(args.compare[0]))} entries differ")
        return 1 if differ else 0
    if not args.manifest:
        p.error("give a manifest path or --compare A B")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        digests = run_entries(FULL, work)
    write_manifest(args.manifest, digests)
    print(f"{len(digests)} entries in {time.perf_counter() - start:.1f}s "
          f"-> {args.manifest}")
    if _run_files(digests, "train-three-w1") != _run_files(digests, "train-three-w2"):
        print("train-three-w1 and train-three-w2 wrote different files", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
