"""Connection tableau prover with MCTS guidance, entropy-shaped policy
predictors, a prove/learn loop, and distribution-comparison tools."""

from .analysis import (AgreementReport, compare, harvest_states, kl_divergence,
                       load_bank, report_csv, save_bank)
from .clausify import ClausifyError, clausify, clausify_text, load_matrix
from .learn import (LoopConfig, TrainConfig, TrainingExample, extract_training_data,
                    policy_loss, run_loop, train, value_loss)
from .policy import (FixedEntropyPredictor, LinearPredictor, Predictor,
                     UniformPredictor, apply_order_preserving, entropy,
                     load_model, make_fixed_entropy_vector, normalized_entropy,
                     predict, save_model, softmax_temperature)
from .search import MCTSNode, ProofResult, SearchLimits, bigstep, prove
from .tableau import (Action, Engine, IllegalActionError, TableauState, decode_action,
                      read_trace, write_trace)
from .terms import Literal, Matrix
from .tptp import ParseError, UnsupportedError, parse_problem, parse_problem_file

__version__ = "0.1.0"

__all__ = [
    "AgreementReport", "compare", "harvest_states", "kl_divergence",
    "load_bank", "report_csv", "save_bank",
    "ClausifyError", "clausify", "clausify_text", "load_matrix",
    "LoopConfig", "TrainConfig", "TrainingExample", "extract_training_data",
    "policy_loss", "run_loop", "train", "value_loss",
    "FixedEntropyPredictor", "LinearPredictor", "Predictor", "UniformPredictor",
    "apply_order_preserving", "entropy", "load_model", "make_fixed_entropy_vector",
    "normalized_entropy", "predict", "save_model", "softmax_temperature",
    "MCTSNode", "ProofResult", "SearchLimits", "bigstep", "prove",
    "Action", "Engine", "IllegalActionError", "TableauState", "decode_action",
    "read_trace", "write_trace",
    "Literal", "Matrix",
    "ParseError", "UnsupportedError", "parse_problem", "parse_problem_file",
    "__version__",
]
