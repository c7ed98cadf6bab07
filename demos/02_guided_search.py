"""Search guidance in action.

Runs the same problem twice: once with the uniform baseline and once
with a policy trained on the baseline's own proof, then prints how the
visit mass and the inference count shift.  The problem is a five-step
chain where every level also offers a two-step decoy branch.
"""

from contab.clausify import clausify_text
from contab.learn import TrainConfig, extract_training_data, train
from contab.policy import UniformPredictor
from contab.search import SearchLimits, prove
from contab.tableau import Engine

LEVELS = 5


def chain_with_decoys():
    # decoys are declared first so the canonical action order tries them
    # ahead of the productive step clause at every level
    lines = ["cnf(base, axiom, s0(a))."]
    for i in range(1, LEVELS + 1):
        # ground decoy head so its hashed features differ from the step's
        lines.append(f"cnf(decoy{i}, axiom, s{i}(a) | da{i}(a)).")
        lines.append(f"cnf(decoy{i}b, axiom, ~da{i}(X) | db{i}(X)).")
        lines.append(f"cnf(decoy{i}c, axiom, ~da{i}(X) | dc{i}(X)).")
        lines.append(f"cnf(step{i}, axiom, s{i}(X) | ~s{i - 1}(X)).")
    lines.append(f"fof(goal, conjecture, s{LEVELS}(a)).")
    return "\n".join(lines)


LIMITS = SearchLimits(inference_limit=3000, bigstep_frequency=10)


def describe_run(label, result):
    print(f"{label}:")
    print(f"  status={result.status} inferences={result.inferences} "
          f"playouts={result.playouts} bigsteps={result.bigsteps}")
    print(f"  mean decision entropy {result.mean_entropy:.3f} "
          f"(normalized {result.mean_normalized_entropy:.3f} "
          f"over {result.entropy_count} states)")


def show_decision(result):
    # first bigstep-trace node with a real choice
    node = next(n for n in result.bigstep_nodes if len(n.actions) > 1)
    print(f"  visit split at the first contested state ({node.state.describe()}):")
    for i, action in enumerate(node.actions):
        child = node.children[i]
        if child is None:
            print(f"    {action.encode():20s} unvisited, prior {node.priors[i]:.3f}")
        else:
            print(f"    {action.encode():20s} visits {child.visits:4d} "
                  f"mean {child.mean:.3f} prior {node.priors[i]:.3f}")


def main():
    engine = Engine(clausify_text(chain_with_decoys()))
    unguided = prove(engine, "chain", UniformPredictor(), LIMITS)
    describe_run("uniform baseline", unguided)
    show_decision(unguided)

    examples = extract_training_data(unguided, engine.matrix)
    print(f"\ntraining on {len(examples)} visit-count example(s) from that run")
    model = train(examples, TrainConfig(epochs=20, learning_rate=0.5), alpha=0.3)
    print(f"  trained policy loss {model.policy_loss:.3f}, value loss {model.value_loss:.3f}\n")

    guided = prove(engine, "chain", model.predictor(), LIMITS)
    describe_run("trained policy", guided)
    show_decision(guided)

    print(f"\nuniform needed {unguided.inferences} inferences, "
          f"the trained policy {guided.inferences}")


if __name__ == "__main__":
    main()
