"""Seeded mutation probe: how often does the test suite tell a wrong program
from a right one?

    python3 tools/mutate.py --count 40 src/spnkit/propagation.py
    python3 tools/mutate.py --count 20 src/spnkit/propagation.py:177-260
    python3 tools/mutate.py --count 300                  every src/spnkit module

Each mutant makes one change in one module, found with the standard
library's `ast`: an arithmetic or comparison operator, `and`/`or`, a `not`
or unary minus dropped, a boolean flipped, or a small integer moved by one.
The sites are listed in source order, optionally only those on lines
START-END, and `--seed` draws `--count` of them. The tree is copied once;
each mutant rewrites its module there (as `ast.unparse` prints it) and runs
the tier-1 suite without `test_acceptance_6`, with `-x` and a per-mutant
timeout, the module's own test file first. One line per mutant reads
killed, survived or timeout, with `file:line` in the original source and
the change. The unmutated, unparsed modules must pass first. This is not
part of the tier-1 suite.
"""
from __future__ import annotations

import argparse
import ast
import functools
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SMALL_INT = 16
TIMEOUT = 120.0  # seconds per mutant; the unmutated run gets ten times this


def _swapped(node, i=None):
    """`node` with its operator, or its i-th comparison operator, swapped."""
    if i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()
    return node


def _swap_name(op) -> str:
    return f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"


def _mutations(node):
    """(description, apply) for each single change of `node`; `apply`
    takes the node and returns its replacement."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
        yield _swap_name(node.op), _swapped
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                yield _swap_name(op), functools.partial(_swapped, i=i)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield f"drop {type(node.op).__name__}", lambda n: n.operand
    elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
        yield f"{node.value} -> {not node.value}", lambda n: ast.Constant(not n.value)
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          and abs(node.value) <= SMALL_INT):
        for step in (1, -1):
            yield (f"{node.value} -> {node.value + step}",
                   lambda n, s=step: ast.Constant(n.value + s))


def _nodes(tree):
    """Every node of `tree` outside annotations (strings at run time under
    `from __future__ import annotations`), each with its parent, in one
    fixed order."""
    out, parents = [], [tree]
    for parent in parents:
        for field, value in ast.iter_fields(parent):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    out.append((child, parent))
                    parents.append(child)
    return out


def sites(path: Path, lines=None) -> list:
    """Every mutation site of one module: (path, node index, change index,
    line, description), in source order."""
    found = []
    for index, (node, _) in enumerate(_nodes(ast.parse(path.read_text()))):
        line = getattr(node, "lineno", None)
        if line is None or (lines and not lines[0] <= line <= lines[1]):
            continue
        for j, (what, _) in enumerate(_mutations(node)):
            found.append((path, index, j, line, what))
    return sorted(found, key=lambda s: (str(s[0]), s[3], s[1], s[2]))


def mutant_source(path: Path, index: int, change: int) -> str:
    tree = ast.parse(path.read_text())
    node, parent = _nodes(tree)[index]
    _, apply = list(_mutations(node))[change]
    new = apply(node)
    for field, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, field, new)
        elif isinstance(value, list):
            value[:] = [new if v is node else v for v in value]
    return ast.unparse(ast.fix_missing_locations(tree))


def run_suite(tree: Path, first, timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for the tier-1 suite (without
    `test_acceptance_6`, stopping at the first failure) in `tree`. On a
    timeout the whole process group is killed, so training workers that
    pytest forked do not outlive it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-k", "not test_acceptance_6", *first, "tests"]
    with subprocess.Popen(cmd, cwd=tree, env=env, start_new_session=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return "pass" if code == 0 else "fail"


def _target(text: str):
    path, _, span = text.partition(":")
    lines = tuple(int(v) for v in span.split("-")) if span else None
    return (ROOT / path).resolve(), lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("targets", nargs="*", metavar="FILE[:START-END]",
                   help="modules to mutate (default: every src/spnkit module)")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    targets = ([_target(t) for t in args.targets] or
               [(f, None) for f in sorted((ROOT / "src" / "spnkit").glob("*.py"))])
    pool = [s for path, lines in targets for s in sites(path, lines)]
    chosen = sorted(random.Random(args.seed).sample(pool, min(args.count, len(pool))),
                    key=lambda s: (str(s[0]), s[3]))
    print(f"{len(chosen)} of {len(pool)} sites, seed {args.seed}", flush=True)
    tally = {"killed": 0, "survived": 0, "timeout": 0}
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".perfbench_run"))
        for path, _ in targets:
            (tree / path.relative_to(ROOT)).write_text(ast.unparse(ast.parse(path.read_text())))
        if run_suite(tree, [], 10 * TIMEOUT) != "pass":
            print("the unmutated tree fails its tests; no mutant was run")
            return 2
        for path, index, change, line, what in chosen:
            rel = path.relative_to(ROOT)
            copy = tree / rel
            clean = copy.read_text()
            own = tree / "tests" / f"test_{path.stem}.py"
            copy.write_text(mutant_source(path, index, change))
            start = time.perf_counter()
            try:
                verdict = run_suite(tree, [str(own)] if own.exists() else [], TIMEOUT)
            finally:
                copy.write_text(clean)
            verdict = {"fail": "killed", "pass": "survived"}.get(verdict, verdict)
            tally[verdict] += 1
            print(f"{verdict:8} {rel}:{line}  {what}  ({time.perf_counter() - start:.1f}s)",
                  flush=True)
    rate = 100.0 * tally["killed"] / max(1, len(chosen))
    print(f"{tally['killed']} killed, {tally['survived']} survived, "
          f"{tally['timeout']} timeout: {rate:.0f}% killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
