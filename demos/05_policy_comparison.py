"""Measuring how differently two policies would steer the prover.

Harvests a bank of branching search states from unguided runs over the
bundled corpus, trains two linear policies on the same data (one plain,
one entropy-regularized), and scores every pairing on the bank: do they
favor the same action (best), rank all actions identically (order), and
how far apart are the distributions (mean KL both ways)?
"""

from contab.analysis import compare, harvest_states
from contab.clausify import load_matrix
from contab.corpus import corpus_problems
from contab.learn import TrainConfig, prove_problems, train
from contab.policy import UniformPredictor
from contab.search import SearchLimits
from contab.tableau import Engine


def main():
    problems = [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]
    engines = dict(problems)

    bank = harvest_states(problems,
                          SearchLimits(inference_limit=400, bigstep_frequency=50))
    contributors = len({e.problem for e in bank.entries})
    print(f"bank: {len(bank)} states with >=2 actions "
          f"from {contributors} problems\n")

    pairs = prove_problems(problems, UniformPredictor(),
                           SearchLimits(inference_limit=20000, bigstep_frequency=4))
    examples = [ex for _, exs in pairs for ex in exs]
    print(f"training both policies on the same {len(examples)} examples")
    sharp = train(examples, TrainConfig(epochs=30, learning_rate=0.3), alpha=0.0)
    soft = train(examples, TrainConfig(epochs=30, learning_rate=0.3), alpha=2.0)

    contenders = {
        "uniform": UniformPredictor(),
        "sharp (alpha=0)": sharp.predictor(1.0),
        "sharp at T=3": sharp.predictor(3.0),
        "soft (alpha=2)": soft.predictor(1.0),
    }

    print(f"\n{'comparison':32s} {'best':>6s} {'order':>6s} {'KL(a,b)':>8s} {'KL(b,a)':>8s}")
    base = contenders["sharp (alpha=0)"]
    for label, other in contenders.items():
        if other is base:
            continue
        r = compare(base, other, bank, engines)
        print(f"sharp (alpha=0) vs {label:13s} {r.best:6.2f} {r.order:6.2f} "
              f"{r.kl_ab:8.3f} {r.kl_ba:8.3f}")

    print("\ntemperature rescaling cannot change any ranking, so its order")
    print("agreement is exactly 1 by construction; the regularized retrain is")
    print("free to reorder (here it happens not to) and its nonzero KL shows")
    print("genuinely reshaped distributions, not just flatter ones")


if __name__ == "__main__":
    main()
