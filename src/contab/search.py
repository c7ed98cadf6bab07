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
from typing import Dict, List, Optional, Sequence, Tuple

from .policy import Predictor, check_distribution, entropy, predict
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
        if not (0 < self.cp < math.inf and 0 < self.wall_clock < math.inf):
            raise ValueError(f"cp and wall_clock must be positive and finite, "
                             f"got {self.cp} and {self.wall_clock}")


class MCTSNode:
    __slots__ = ("state", "actions", "priors", "children", "visits", "reward_sum", "parent",
                 "action_index", "depth", "fully_explored", "expanded", "order", "frontier")

    def __init__(self, state, parent, action_index, depth):
        self.state = state
        self.parent = parent
        self.action_index = action_index
        self.depth = depth
        self.actions: List[Action] = []
        # priors[i] is the prior of action i and of children[i]
        self.priors = None
        self.children: List[Optional[MCTSNode]] = []
        # what _select reads instead of every slot: the expanded slots, and
        # all slots ordered by (-prior, index), expanded before position
        # ``frontier`` and unexpanded at it
        self.expanded: List[int] = []
        self.order: Sequence[int] = ()
        self.frontier = 0
        self.visits = 0
        self.reward_sum = 0.0
        self.fully_explored = False

    def set_priors(self, priors: List[float]) -> None:
        """Give each action slot its prior; every slot starts unexpanded."""
        n = len(priors)
        self.priors = priors
        self.children = [None] * n
        # (-prior, index) order: the sort is stable, and equal priors (one
        # action, or a uniform predictor) are in it already
        self.order = (range(n) if priors.count(priors[0]) == n
                      else sorted(range(n), key=priors.__getitem__, reverse=True))

    def add_child(self, i: int, child: "MCTSNode") -> None:
        """Expand slot ``i`` with ``child``."""
        children = self.children
        children[i] = child
        self.expanded.append(i)
        order, f = self.order, self.frontier
        while f < len(order) and children[order[f]] is not None:
            f += 1
        self.frontier = f

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
    bigsteps: int = 0
    proof: Optional[List[Action]] = None
    # summed over the states that were scored; the means divide by the count
    entropy_sum: float = 0.0
    normalized_entropy_sum: float = 0.0
    entropy_count: int = 0
    wall_time: float = 0.0
    # in-memory only: bigstep-trace nodes for training extraction and
    # harvested (action-path, action-count) pairs for state banks
    bigstep_nodes: List[MCTSNode] = field(default_factory=list, repr=False)
    harvested: List[Tuple[Tuple[str, ...], int]] = field(default_factory=list, repr=False)

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def drop_tree(self) -> None:
        """Forgets the search tree.  Its nodes point back at their parents,
        so a dropped tree is a reference cycle that holds its memory until
        the cyclic garbage collector runs; with the back links cut, it is
        freed as soon as it is dropped."""
        stack = self.bigstep_nodes[:1]
        self.bigstep_nodes = []
        while stack:
            node = stack.pop()
            node.parent = None
            stack.extend([node.children[i] for i in node.expanded])

    @property
    def playouts(self) -> int:
        """Each playout adds one leaf by one action: ``inferences``."""
        return self.inferences

    @property
    def mean_entropy(self) -> float:
        return self.entropy_sum / self.entropy_count if self.entropy_count else 0.0

    @property
    def mean_normalized_entropy(self) -> float:
        return self.normalized_entropy_sum / self.entropy_count if self.entropy_count else 0.0


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
        self.entropy_sum = 0.0
        self.normalized_entropy_sum = 0.0
        self.entropy_count = 0
        self.harvested: List[Tuple[Tuple[str, ...], int]] = []
        # the first closed leaf: the only record that a proof was found
        self.proof_leaf: Optional[MCTSNode] = None
        # a predictor that reads neither the state nor action features
        # scores every node with n actions alike: (priors, value, entropy,
        # normalized entropy) by n, the priors list shared read-only by
        # those nodes
        self.scored: Dict[int, Tuple[List[float], float, float, float]] = {}

    def _evaluate(self, node: MCTSNode) -> float:
        """Fill in actions, priors, and value; returns the node's reward."""
        state = node.state
        if self.engine.is_closed(state):
            node.fully_explored = True
            self.proof_leaf = node
            return DISCOUNT ** node.depth
        node.actions = self.engine.legal_actions(state)
        if not node.actions:
            node.fully_explored = True
            return 0.0
        n = len(node.actions)
        scored = self.scored.get(n)
        if scored is None:
            probs, value = predict(self.predictor, state, node.actions, self.engine.matrix)
            # [1.0] has entropy 0.0; h / ln n is normalized_entropy(probs)
            h = entropy(probs) if n > 1 else 0.0
            # plain floats: _select reads them in the hot loop
            priors = probs.tolist()
            check_distribution(self.predictor, priors)
            scored = (priors, value, h, h / math.log(n) if n > 1 else 0.0)
            if not (self.predictor.reads_state or self.predictor.reads_actions):
                self.scored[n] = scored
        priors, value, h, normalized = scored
        node.set_priors(priors)
        if n > 1:
            self.entropy_sum += h
            self.normalized_entropy_sum += normalized
        self.entropy_count += 1
        if self.collect_states and len(node.actions) >= 2 and len(self.harvested) < HARVEST_CAP:
            path = tuple(a.encode() for a in node.action_path())
            self.harvested.append((path, len(node.actions)))
        return value

    def _select(self, node: MCTSNode) -> int:
        """Index of the child slot with maximal UCT score
        ``mean + cp * prior * sqrt(ln N / visits)``, lowest index on ties;
        unexpanded slots score cp * prior * sqrt(ln N); fully explored
        children are skipped.  This is the only place UCT is computed.

        At one visit (N = 1) every unexpanded slot scores 0, and nothing
        is expanded yet, so the first expansion below a node is slot 0,
        whatever the predictor says.

        Only the expanded children and the leading unexpanded slots are
        scored: an unexpanded slot's score falls (weakly) along
        ``node.order``, so the best one is the first, unless slots after
        it with lower priors round to the same score and a lower index.

        A node with one slot, the most common kind, needs no score: the
        slot is the answer unless its child is fully explored, since its
        prior, its child's mean and ``cp`` are all finite."""
        children = node.children
        if len(children) == 1:
            child = children[0]
            return -1 if child is not None and child.fully_explored else 0
        log_n = math.log(node.visits)
        cp = self.limits.cp
        priors = node.priors
        order = node.order
        best, best_score = -1, -math.inf
        f = node.frontier
        if f < len(order):
            sqrt_log_n = math.sqrt(log_n)
            best = order[f]
            best_score = cp * priors[best] * sqrt_log_n
            if priors[order[-1]] != priors[best]:
                for k in range(f + 1, len(order)):
                    j = order[k]
                    if cp * priors[j] * sqrt_log_n < best_score:
                        break
                    if j < best and children[j] is None:
                        best = j
        for i in node.expanded:
            child = children[i]
            if child.fully_explored:
                continue
            # an expanded child has visits >= 1, so this is its mean
            score = (child.reward_sum / child.visits
                     + cp * priors[i] * math.sqrt(log_n / child.visits))
            if score > best_score or score == best_score and i < best:
                best, best_score = i, score
        return best

    def add_node(self, node: MCTSNode) -> None:
        """Evaluates a new node, the root or a leaf, and backpropagates its
        reward through it and every ancestor.  A terminal node is fully
        explored, and so in turn is each ancestor whose slots are all
        expanded and fully explored; any other node keeps a slot that
        ``_select`` picks by finite priors, so a playout adds a leaf."""
        reward = self._evaluate(node)
        cur = node
        while cur is not None:
            cur.visits += 1
            cur.reward_sum += reward
            cur = cur.parent
        cur = node.parent if node.fully_explored else None
        while (cur is not None and cur.frontier == len(cur.order)
               and all(cur.children[i].fully_explored for i in cur.expanded)):
            cur.fully_explored = True
            cur = cur.parent

    def playout(self, root: MCTSNode) -> None:
        """One select/expand/evaluate/backpropagate pass below ``root``,
        which is not fully explored: it adds exactly one leaf."""
        node = root
        i = self._select(node)
        while node.children[i] is not None:
            node = node.children[i]
            i = self._select(node)
        state = self.engine.apply(node.state, node.actions[i])
        self.inferences += 1
        leaf = MCTSNode(state, node, i, node.depth + 1)
        node.add_child(i, leaf)
        self.add_node(leaf)


def bigstep(root: MCTSNode) -> Optional[MCTSNode]:
    """Best expanded child by mean reward, lowest action index on ties."""
    return max((c for c in root.children if c is not None), key=lambda c: c.mean, default=None)


def prove(engine: Engine, problem: str, predictor: Predictor,
          limits: Optional[SearchLimits] = None,
          collect_states: bool = False) -> ProofResult:
    """Search for a closed tableau, one leaf per playout.  Each stop has one
    site: the current root fully explored (``dead-end``), the budget or
    the wall clock spent (``budget-exhausted``), the first proof
    (``solved``); a distribution that is not finite raises ``ValueError``."""
    limits = limits or SearchLimits()
    t0 = time.monotonic()
    search = _Search(engine, predictor, limits, collect_states)
    root = MCTSNode(engine.root_state(), None, -1, 0)
    search.add_node(root)
    current = root
    bigstep_nodes = [root]
    status = "budget-exhausted"

    while True:
        if current.fully_explored:
            status = "dead-end"
            break
        if search.inferences >= limits.inference_limit:
            break
        if time.monotonic() - t0 > limits.wall_clock:
            break
        search.playout(current)
        if search.proof_leaf is not None:
            status = "solved"
            break
        # every playout adds one inference and one leaf below current, so
        # this counts the playouts since the last bigstep
        if search.inferences % limits.bigstep_frequency == 0:
            current = bigstep(current)
            bigstep_nodes.append(current)

    proof = None
    if search.proof_leaf is not None:
        proof = search.proof_leaf.action_path()
        check = engine.check_proof(proof)
        if not check:
            raise RuntimeError(f"{problem}: found proof fails replay: {check.reason}")
    return ProofResult(
        problem=problem,
        status=status,
        inferences=search.inferences,
        bigsteps=len(bigstep_nodes) - 1,
        proof=proof,
        entropy_sum=search.entropy_sum,
        normalized_entropy_sum=search.normalized_entropy_sum,
        entropy_count=search.entropy_count,
        wall_time=time.monotonic() - t0,
        bigstep_nodes=bigstep_nodes,
        harvested=search.harvested,
    )
