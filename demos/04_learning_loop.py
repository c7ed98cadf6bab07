"""The prove/train iteration loop, end to end.

Runs iteration 0 unguided over the bundled corpus, trains a linear
policy/value pair on the visit counts it produced, and repeats under
guidance.  Prints the per-iteration statistics table twice, once with
the entropy bonus off and once with a strong one, to show the knob's
effect on how sharp the learned policy becomes.
"""

import tempfile
from pathlib import Path

from contab.clausify import load_matrix
from contab.corpus import corpus_problems
from contab.learn import LoopConfig, TrainConfig, run_loop
from contab.search import SearchLimits
from contab.tableau import Engine


def problems():
    return [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]


def run(alpha, out_dir):
    cfg = LoopConfig(
        alpha=alpha,
        limits=SearchLimits(inference_limit=20000, bigstep_frequency=4),
        train=TrainConfig(epochs=30, learning_rate=0.3, seed=0),
    )
    return run_loop(problems(), 2, cfg, out_dir=out_dir)


def show(label, result):
    print(f"{label}:")
    print("  iter  solved  mean H   mean H*")
    for s in result.stats:
        print(f"  {s.iteration:4d}  {s.solved:6d}  {s.mean_entropy:.4f}   "
              f"{s.mean_normalized_entropy:.4f}")


def main():
    print(f"{len(corpus_problems())} corpus problems, 2 guided iterations each\n")
    with tempfile.TemporaryDirectory() as tmp:
        sharp = run(alpha=0.0, out_dir=f"{tmp}/a0")
        soft = run(alpha=2.0, out_dir=f"{tmp}/a2")
        show("alpha = 0 (pure cross-entropy)", sharp)
        print()
        show("alpha = 2 (strong entropy bonus)", soft)
        print()
        print("artifacts written per iteration:")
        for name in sorted(p.name for p in Path(tmp, "a0").iterdir()):
            print(f"  {name}")
    print("\nthe entropy bonus keeps later iterations exploring: compare the")
    print("final H* rows; solved counts stay level on this small corpus")


if __name__ == "__main__":
    main()
