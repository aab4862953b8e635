"""Run tier-1 under a line trace and name each line of src/tempbal that compiled code holds but no process ran.

    python tests/linetrace.py [pytest args...]

The tree is copied under TMPDIR, and a sitecustomize.py written into the copy's src/ installs the trace in every
Python process started with src/ on PYTHONPATH: pytest and the CLI subprocesses its tests start. Each process
writes the lines it ran under src/tempbal to a file of its own when it exits. A line counts as compiled when a code
object of its module (functions, classes and comprehensions included) holds an instruction on it. Each unrun line
is printed as `path:line: text`, and the exit status is 1 when any is left (or when pytest fails), else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

from mutate import ROOT, SKIP

HOOK = '''\
import atexit, os, sys, threading

_dir, _watch, _ran = os.environ["LINETRACE_DIR"], os.environ["LINETRACE_WATCH"], set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_watch) else None


@atexit.register
def _write():
    with open(os.path.join(_dir, f"{os.getpid()}.txt"), "a", encoding="utf-8") as fh:
        fh.writelines(f"{line}\\t{path}\\n" for path, line in _ran)


sys.settrace(_call)
threading.settrace(_call)
'''


def run_traced(cmd: list[str], cwd: Path, site: Path, watch: Path) -> tuple[int, dict[str, set[int]]]:
    """Run cmd with the hook in site/sitecustomize.py; its exit status and the lines run under watch, per file."""
    (site / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    with tempfile.TemporaryDirectory() as traces:
        path = os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "LINETRACE_DIR": traces, "LINETRACE_WATCH": str(watch) + os.sep}
        status = subprocess.run(cmd, cwd=cwd, env=env).returncode
        ran: dict[str, set[int]] = {}
        for trace in Path(traces).iterdir():
            for record in trace.read_text(encoding="utf-8").splitlines():
                line, _, file = record.partition("\t")
                ran.setdefault(file, set()).add(int(line))
    return status, ran


def compiled_lines(path: Path) -> set[int]:
    """The lines on which some code object compiled from the file holds an instruction."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def unrun(watch: Path, ran: dict[str, set[int]], root: Path) -> list[str]:
    """`path:line: text`, path relative to root, of each compiled line of the .py files under watch that no traced
    process ran."""
    found = []
    for path in sorted(watch.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        missed = compiled_lines(path) - ran.get(str(path), set())
        found += [f"{path.relative_to(root)}:{line}: {text[line - 1].strip()}" for line in sorted(missed)]
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *sys.argv[1:]]
        status, ran = run_traced(cmd, tree, tree / "src", tree / "src" / "tempbal")
        missed = unrun(tree / "src" / "tempbal", ran, tree)
    print(*missed, sep="\n")
    print(f"{len(missed)} unrun lines in src/tempbal; pytest exited {status}")
    sys.exit(1 if missed or status else 0)
