"""Run tier-1 against mutants of the source: each one a text replacement in one file of a copy of the tree.

    python tests/mutate.py tests/mutants_gram.txt [pytest args...]

Each line of the list reads `path: old => new`, with the path relative to the
repository root and `\\n` standing for a line break; blank lines and lines that
start with `#` are skipped. `old` must occur exactly once in its file. Every
mutant is applied to its own copy of the tree (made under TMPDIR), where
tier-1 runs with `-x -q` and any extra pytest args, all but
tests/test_mutant_lists.py; the mutant is killed when pytest exits non-zero,
and the first failing test is printed with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST_CHECK = "tests/test_mutant_lists.py"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")


def mutants(listing: Path) -> list[tuple[str, str, str]]:
    """The (path, old, new) of each mutant in a list file."""
    found = []
    for line in listing.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            path, _, change = line.partition(": ")
            old, arrow, new = change.partition(" => ")
            if not (old and arrow):
                raise SystemExit(f"{listing}: not a `path: old => new` line: {line!r}")
            found.append((path, old.replace("\\n", "\n"), new.replace("\\n", "\n")))
    return found


def run(path: str, old: str, new: str, pytest_args: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        text = (tree / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"not applied: the text occurs {text.count(old)} times"
        (tree / path).write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # the check that each list applies reads the very text a mutant replaced, so it would kill every mutant
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--ignore={LIST_CHECK}"]
        cmd += pytest_args
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return f"killed by {failed[0] if failed else f'exit {done.returncode}'}" if done.returncode else "survived"


if __name__ == "__main__":
    for number, (path, old, new) in enumerate(mutants(Path(sys.argv[1])), start=1):
        print(f"{number} {path}: {old!r} => {new!r}: {run(path, old, new, sys.argv[2:])}", flush=True)
