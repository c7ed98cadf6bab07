"""Monte-Carlo tree search over tableau states.

Each playout descends from the current root by prior-weighted UCT,
expands exactly one new leaf, evaluates it with the value predictor (or
a terminal reward), and backpropagates.  Every ``bigstep_frequency``
playouts the root moves irreversibly to the child with the best mean
reward.  Node creation applies one calculus action, so the inference
budget equals the number of tree nodes minus the root.

Terminal leaves (closed or no legal action) and subtrees in which every
branch has terminated are marked fully explored and skipped during
selection; when the root itself is fully explored without a proof the
problem is a dead end for the calculus.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .policy import Predictor, entropy, normalized_entropy, predict
from .tableau import Action, Engine

DISCOUNT = 0.99
HARVEST_CAP = 200


@dataclass
class SearchLimits:
    inference_limit: int = 20000
    bigstep_frequency: int = 200
    cp: float = 1.0
    wall_clock: float = 300.0

    def __post_init__(self):
        if self.inference_limit <= 0 or self.bigstep_frequency <= 0:
            raise ValueError("limits must be positive")
        if self.cp <= 0 or self.wall_clock <= 0:
            raise ValueError("cp and wall_clock must be positive")


class MCTSNode:
    __slots__ = ("state", "actions", "priors", "value", "children", "visits",
                 "reward_sum", "prior", "parent", "action_index", "depth",
                 "is_proof", "has_proof", "terminal_reward", "fully_explored")

    def __init__(self, state, parent, action_index, prior, depth):
        self.state = state
        self.parent = parent
        self.action_index = action_index
        self.prior = prior
        self.depth = depth
        self.actions: List[Action] = []
        self.priors = None
        self.value = 0.0
        self.children: List[Optional[MCTSNode]] = []
        self.visits = 0
        self.reward_sum = 0.0
        self.is_proof = False
        self.has_proof = False
        self.terminal_reward = None
        self.fully_explored = False

    @property
    def mean(self) -> float:
        return self.reward_sum / self.visits if self.visits else 0.0

    def action_path(self) -> List[Action]:
        path = []
        node = self
        while node.parent is not None:
            path.append(node.parent.actions[node.action_index])
            node = node.parent
        path.reverse()
        return path


@dataclass
class ProofResult:
    problem: str
    status: str
    inferences: int = 0
    playouts: int = 0
    bigsteps: int = 0
    proof: Optional[List[Action]] = None
    mean_entropy: float = 0.0
    mean_normalized_entropy: float = 0.0
    entropy_count: int = 0
    wall_time: float = 0.0
    seed: int = 0
    # in-memory only: bigstep-trace nodes for training extraction and
    # harvested (action-path, action-count) pairs for state banks
    bigstep_nodes: List[MCTSNode] = field(default_factory=list, repr=False)
    harvested: List[Tuple[Tuple[str, ...], int]] = field(default_factory=list, repr=False)

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def format_result_line(result: ProofResult, trace_ref: str = "-") -> str:
    return (f"problem={result.problem} status={result.status} "
            f"inferences={result.inferences} playouts={result.playouts} "
            f"bigsteps={result.bigsteps} trace={trace_ref}")


class _Search:
    def __init__(self, engine: Engine, predictor: Predictor, limits: SearchLimits,
                 collect_states: bool):
        self.engine = engine
        self.predictor = predictor
        self.limits = limits
        self.collect_states = collect_states
        self.inferences = 0
        self.playouts = 0
        self.entropy_sum = 0.0
        self.nentropy_sum = 0.0
        self.entropy_count = 0
        self.harvested: List[Tuple[Tuple[str, ...], int]] = []
        self.proof_leaf: Optional[MCTSNode] = None

    def _evaluate(self, node: MCTSNode) -> float:
        """Fill in actions, priors, and value; returns the leaf reward."""
        state = node.state
        if self.engine.is_closed(state):
            node.fully_explored = True
            node.is_proof = True
            node.terminal_reward = DISCOUNT ** node.depth
            return node.terminal_reward
        node.actions = self.engine.legal_actions(state)
        probs, value = predict(self.predictor, state, node.actions, self.engine.matrix)
        if not node.actions:
            node.fully_explored = True
            node.terminal_reward = 0.0
            return 0.0
        # plain floats: _select reads them in the hot loop
        node.priors = probs.tolist()
        node.children = [None] * len(node.actions)
        node.value = value
        self.entropy_sum += entropy(probs)
        self.nentropy_sum += normalized_entropy(probs)
        self.entropy_count += 1
        if self.collect_states and len(node.actions) >= 2 and len(self.harvested) < HARVEST_CAP:
            path = tuple(a.encode() for a in node.action_path())
            self.harvested.append((path, len(node.actions)))
        return value

    def _select(self, node: MCTSNode) -> int:
        """Index of the child slot with maximal UCT score
        ``mean + cp * prior * sqrt(ln N / visits)``, lowest index on ties;
        unexpanded slots score cp * prior * sqrt(ln N); fully explored
        children are skipped.  This is the only place UCT is computed."""
        log_n = math.log(node.visits)
        sqrt_log_n = math.sqrt(log_n)
        cp = self.limits.cp
        priors = node.priors
        best, best_score = -1, -math.inf
        for i, child in enumerate(node.children):
            if child is None:
                score = cp * priors[i] * sqrt_log_n
            elif child.fully_explored:
                continue
            else:
                # an expanded child has visits >= 1, so this is its mean
                score = (child.reward_sum / child.visits
                         + cp * child.prior * math.sqrt(log_n / child.visits))
            if score > best_score:
                best, best_score = i, score
        return best

    def _backpropagate(self, node: MCTSNode, reward: float) -> None:
        cur = node.parent
        while cur is not None:
            cur.visits += 1
            cur.reward_sum += reward
            cur = cur.parent

    def _mark_explored(self, node: MCTSNode) -> None:
        cur = node.parent
        while cur is not None:
            if any(c is None or not c.fully_explored for c in cur.children):
                break
            cur.fully_explored = True
            cur = cur.parent

    def _mark_proof(self, leaf: MCTSNode) -> None:
        cur = leaf
        while cur is not None:
            cur.has_proof = True
            cur = cur.parent

    def expand_root(self, state) -> MCTSNode:
        root = MCTSNode(state, None, -1, 1.0, 0)
        reward = self._evaluate(root)
        root.visits = 1
        root.reward_sum = reward
        return root

    def playout(self, root: MCTSNode) -> Optional[MCTSNode]:
        """One select/expand/evaluate/backpropagate pass; returns the new
        leaf, or None when the budget blocks expansion."""
        node = root
        while True:
            i = self._select(node)
            if i < 0:
                # every branch below is exhausted; nothing left to add
                node.fully_explored = True
                self._mark_explored(node)
                return None
            child = node.children[i]
            if child is not None:
                node = child
                continue
            if self.inferences >= self.limits.inference_limit:
                return None
            state = self.engine.apply(node.state, node.actions[i])
            self.inferences += 1
            leaf = MCTSNode(state, node, i, node.priors[i], node.depth + 1)
            node.children[i] = leaf
            reward = self._evaluate(leaf)
            leaf.visits = 1
            leaf.reward_sum = reward
            self._backpropagate(leaf, reward)
            if leaf.fully_explored:
                self._mark_explored(leaf)
            if leaf.is_proof:
                self._mark_proof(leaf)
                self.proof_leaf = leaf
            self.playouts += 1
            return leaf


def bigstep(root: MCTSNode) -> Optional[MCTSNode]:
    """Best expanded child by mean reward, lowest action index on ties; a
    child whose subtree already holds a proof wins outright."""
    best, best_key = None, None
    for child in root.children:
        if child is None:
            continue
        key = (1 if child.has_proof else 0, child.mean)
        if best_key is None or key > best_key:
            best, best_key = child, key
    return best


def prove(engine: Engine, problem: str, predictor: Predictor,
          limits: Optional[SearchLimits] = None, seed: int = 0,
          collect_states: bool = False) -> ProofResult:
    """Search for a closed tableau; stops at the first proof, on budget
    exhaustion, or when the root subtree is fully explored."""
    limits = limits or SearchLimits()
    t0 = time.monotonic()
    search = _Search(engine, predictor, limits, collect_states)
    root = search.expand_root(engine.root_state())
    current = root
    bigstep_nodes = [root]
    status = "budget-exhausted"
    since_bigstep = 0

    while True:
        if current.fully_explored:
            status = "dead-end" if search.proof_leaf is None else "solved"
            break
        if search.inferences >= limits.inference_limit:
            break
        if time.monotonic() - t0 > limits.wall_clock:
            break
        leaf = search.playout(current)
        if search.proof_leaf is not None:
            status = "solved"
            break
        if leaf is None:
            continue
        since_bigstep += 1
        if since_bigstep >= limits.bigstep_frequency:
            nxt = bigstep(current)
            if nxt is None:
                status = "dead-end"
                break
            current = nxt
            bigstep_nodes.append(current)
            since_bigstep = 0

    proof = None
    if search.proof_leaf is not None:
        status = "solved"
        proof = search.proof_leaf.action_path()
        check = engine.check_proof(proof)
        if not check:
            raise RuntimeError(f"{problem}: found proof fails replay: {check.reason}")
    n = search.entropy_count
    return ProofResult(
        problem=problem,
        status=status,
        inferences=search.inferences,
        playouts=search.playouts,
        bigsteps=len(bigstep_nodes) - 1,
        proof=proof,
        mean_entropy=search.entropy_sum / n if n else 0.0,
        mean_normalized_entropy=search.nentropy_sum / n if n else 0.0,
        entropy_count=n,
        wall_time=time.monotonic() - t0,
        seed=seed,
        bigstep_nodes=bigstep_nodes,
        harvested=search.harvested,
    )
