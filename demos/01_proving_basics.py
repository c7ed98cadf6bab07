"""A first proof, step by step.

Parses a tiny problem, shows its clausal matrix, walks the tableau by
hand through legal actions, then lets the search do the same and replays
the found proof through the checker.
"""

from contab.clausify import clausify_text
from contab.policy import UniformPredictor
from contab.search import SearchLimits, prove
from contab.tableau import Engine, IllegalActionError
from contab.terms import literal_str

PROBLEM = """\
fof(everyone, axiom, ![X]: (human(X) => mortal(X))).
fof(fact, axiom, human(socrates)).
fof(goal, conjecture, mortal(socrates)).
"""


def show_matrix(matrix):
    print("clausal matrix (conjecture negated, variables clause-local):")
    for cid, clause in enumerate(matrix.clauses):
        lits = " | ".join(literal_str(l) for l in clause)
        marker = "*" if cid in matrix.start_ids else " "
        print(f"  {marker} c{cid}: {lits}")
    print("  (* = start clause candidates)\n")


def walk_by_hand(engine):
    print("manual walk, always taking the first legal action:")
    state = engine.root_state()
    steps = 0
    while True:
        actions = engine.legal_actions(state)
        if not actions:
            break
        print(f"  {state.describe()}")
        print(f"  {len(actions)} legal action(s); applying {actions[0].encode()!r}")
        state = engine.apply(state, actions[0])
        steps += 1
    closed = not state.goals and state.started
    print(f"  tableau {'closed' if closed else 'stuck'} after {steps} steps\n")


def main():
    matrix = clausify_text(PROBLEM)
    show_matrix(matrix)
    engine = Engine(matrix)
    walk_by_hand(engine)

    result = prove(engine, "socrates", UniformPredictor(),
                   SearchLimits(inference_limit=500, bigstep_frequency=50))
    print(f"search status: {result.status} after {result.inferences} inferences")
    print("proof trace:")
    for action in result.proof:
        print(f"  {action.encode()}")
    engine.check_proof(result.proof)  # raises if the proof does not close the tableau
    print("independent replay: valid")
    try:
        engine.check_proof(result.proof[:-1])
    except IllegalActionError as e:
        print(f"without its last action: step {e.step}: {e}")


if __name__ == "__main__":
    main()
