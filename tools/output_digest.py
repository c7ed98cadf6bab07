"""Digest of every file a fixed command-line suite writes.

    python3 tools/output_digest.py [PROBLEM ...] > digest.txt

Runs the ``contab`` command line of the checkout this file lies in, in a
fresh temporary directory with relative output paths, over the given
problem files or directories (default: the bundled corpus), then prints
``sha256  relpath`` for every file the suite wrote, sorted by path.  Two
checkouts that write the same bytes print the same listing, so a
refactor that must keep every output byte-identical is checked by
diffing two listings.

The suite, in order:

- ``loop --iterations 2 --alpha 0,0.7 --workers 2``, which also trains
  the models the specs below read;
- ``prove --workers 2`` once per predictor spec: ``uniform``, ``linear``
  and ``fixed-entropy`` over the loop's alpha 0.7 models;
- ``harvest``, then ``analyze --label fixed`` comparing the linear and
  fixed-entropy specs over the harvested bank.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MODELS = "loop/alpha_0.7"
SPECS = {
    "uniform": "uniform",
    "linear": f"linear:policy={MODELS}/policy_iter2.model:value={MODELS}/value_iter2.model",
    "fixed": f"fixed-entropy:hstar=0.6:seed=3:policy={MODELS}/policy_iter2.model",
}


def suite(problems: Sequence[str]) -> List[List[str]]:
    """The command lines of the suite, each without the leading ``contab``."""
    commands = [["loop", *problems, "--out", "loop", "--iterations", "2",
                 "--alpha", "0,0.7", "--workers", "2"]]
    for name, spec in SPECS.items():
        commands.append(["prove", *problems, "--out", f"prove-{name}",
                         "--predictor", spec, "--workers", "2"])
    commands.append(["harvest", *problems, "--out", "harvest"])
    commands.append(["analyze", *problems, "--bank", "harvest/bank.txt",
                     "--predictor-a", SPECS["linear"], "--predictor-b", SPECS["fixed"],
                     "--label", "fixed", "--out", "analyze"])
    return commands


def digest(problems: Sequence[str] = ()) -> List[Tuple[str, str]]:
    """(relative path, sha256) of every file the suite writes, by path; a
    command that exits nonzero raises ``RuntimeError`` with its stderr."""
    paths = [str(Path(p).resolve()) for p in problems] or [str(ROOT / "src" / "contab" / "corpus")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory(prefix="contab-digest-") as tmp:
        for argv in suite(paths):
            out = subprocess.run([sys.executable, "-m", "contab.cli", *argv], cwd=tmp, env=env,
                                 capture_output=True, text=True)
            if out.returncode != 0:
                raise RuntimeError(f"contab {argv[0]} exited {out.returncode}: {out.stderr}")
        base = Path(tmp)
        return sorted((f.relative_to(base).as_posix(), hashlib.sha256(f.read_bytes()).hexdigest())
                      for f in base.rglob("*") if f.is_file())


def main(argv: Sequence[str]) -> int:
    try:
        listing = digest(argv)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for rel, sha in listing:
        print(f"{sha}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
