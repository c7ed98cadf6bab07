"""tools/output_digest.py: the listing of a fixed suite is reproducible."""

import importlib.util
from pathlib import Path

from contab.corpus import corpus_dir

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_two_runs_give_the_same_listing():
    problems = [str(corpus_dir() / f"{name}.p") for name in ("branch2", "chain1", "eq_basic")]
    first = output_digest.digest(problems)
    assert output_digest.digest(problems) == first
    names = {Path(rel).name for rel, _ in first}
    assert {"results.txt", "stats.csv", "bank.txt", "agreement.csv"} <= names
