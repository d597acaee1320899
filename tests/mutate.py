"""Run the committed mutants of ``tests/mutants.json`` and report the survivors.

Each mutant names a file (relative to the repository root), a string that
occurs in it exactly once, the string that replaces it, and the test (a
pytest node id) that must fail once it is replaced.  The package and its
tests are copied to a scratch directory; each mutant is applied to the copy
alone, its test is run there, and the file is restored.  A mutant is
*killed* when its test fails (or cannot even be collected), and *survives*
when it passes.  The unmutated copy must pass every named test first.

    python tests/mutate.py                  # every mutant
    python tests/mutate.py --only insert    # those whose name contains "insert"

Exit status 0 when every mutant is killed, 1 otherwise.  pytest does not
collect this file: it is not named ``test_*.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")


def _pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, capture_output=True, text=True, timeout=900)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run only the mutants whose name contains this")
    parser.add_argument("--work", default=None, help="directory for the scratch copy (default: the system's)")
    args = parser.parse_args()
    mutants = [m for m in json.loads((ROOT / "tests" / "mutants.json").read_text()) if args.only in m["name"]]
    with tempfile.TemporaryDirectory(dir=args.work) as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        baseline = _pytest(copy, sorted({m["test"] for m in mutants}))
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:])
            print("the unmutated copy fails a named test")
            return 1
        survivors = 0
        for mutant in mutants:
            path = copy / mutant["file"]
            original = path.read_text()
            if original.count(mutant["old"]) != 1:
                print(f"NOT APPLIED  {mutant['name']}: its string occurs {original.count(mutant['old'])} times")
                survivors += 1
                continue
            path.write_text(original.replace(mutant["old"], mutant["new"]))
            start = time.perf_counter()
            try:
                result = _pytest(copy, [mutant["test"]])
            finally:
                path.write_text(original)
            # 1: a test failed; 2: collection failed (the mutant breaks the import); 4 and 5 name no test
            killed = result.returncode in (1, 2)
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'}  {mutant['name']}  "
                  f"({mutant['test']}, {time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} killed")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
