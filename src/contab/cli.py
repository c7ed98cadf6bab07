"""Command-line entry points.

Subcommands: prove, loop, harvest, analyze, check, make-vector.  Each
of the first four takes only the flag groups it reads (see ``_FLAGS``).
Every flag has a default, shown by ``--help``; where the library defines
it (``SearchLimits``, ``TrainConfig``, ``LoopConfig``, ``PATH_LIMIT``) it
is read from there.  A key=value ``--config`` file replaces defaults and
explicit flags override the file; argparse's namespace holds the result,
which a manifest under --out records beside the outputs.  ``prove
--predictor`` and ``analyze --predictor-a/-b`` take one spec format (see
``parse_predictor_spec``).  Search has no randomness, so the worker count
never changes any result; ``loop --seed`` seeds training and a
fixed-entropy spec's ``seed=`` its vectors.
"""

from __future__ import annotations

import argparse
import glob as globmod
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import (AGREEMENT_COLUMNS, agreement_rows, compare, harvest_states,
                       load_bank, report_csv, save_bank)
from .clausify import load_matrix
from .corpus import corpus_dir
from .fileio import atomic_open, read_text
from .learn import STATS_COLUMNS, LoopConfig, TrainConfig, prove_problems, run_loop
from .policy import (FixedEntropyPredictor, LinearPredictor, Predictor,
                     UniformPredictor, load_model, make_fixed_entropy_vector,
                     apply_order_preserving)
from .search import SearchLimits, format_result_line
from .tableau import (PATH_LIMIT, Engine, IllegalActionError, check_path_limit, read_trace,
                      write_trace)

CORPUS_ENV = "CONTAB_CORPUS_DIR"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` or a cpuset narrows it), else the CPU
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Flag groups, key -> (default, converter, help).  The flag is the key
# with dashes; the converter also parses config-file strings, and None
# marks an on/off switch.  A default that the library defines is read
# from the type that uses it; a callable default is called when the
# parser is built.
_PROBLEM_SET = {
    "corpus": (None, str, "directory of *.p problems used when no problems are listed"),
    "path_limit": (PATH_LIMIT, int, "maximum tableau depth (default %(default)s)"),
    "no_paramodulation": (False, None, "disable equality rewriting steps"),
    "out": ("contab-out", str, "output directory (default %(default)s)"),
}
_LIMITS = {
    "inference_limit": (SearchLimits.inference_limit, int,
                        "total action applications per problem (default %(default)s)"),
    "bigstep_frequency": (SearchLimits.bigstep_frequency, int,
                          "playouts between root advances (default %(default)s)"),
    "cp": (SearchLimits.cp, float, "UCT exploration constant (default %(default)s)"),
    "wall_clock": (SearchLimits.wall_clock, float,
                   "per-problem time limit in seconds (default %(default)s)"),
}
_RUN = {
    "workers": (_usable_cpus, int, "prover processes, this one included, at most one per "
                                   "problem (default: the CPUs this process may run on)"),
}
_PREDICTOR = {
    "predictor": ("uniform", str, "predictor spec, e.g. uniform or "
                                  "linear:policy=F:value=G (default %(default)s)"),
}
_LOOP = {
    "seed": (TrainConfig.seed, int, "training seed, shuffles SGD batches (default %(default)s)"),
    "iterations": (3, int, "guided iterations after the unguided pass (default %(default)s)"),
    "alpha": (str(LoopConfig.alpha), str, "entropy coefficient, or comma-separated "
                                          "coefficients to run one loop each "
                                          "(default %(default)s)"),
    "temperature": (LoopConfig.temperature, float,
                    "softmax temperature of the trained predictors (default %(default)s)"),
    "learning_rate": (TrainConfig.learning_rate, float, "SGD step size (default %(default)s)"),
    "epochs": (TrainConfig.epochs, int, "training epochs per iteration (default %(default)s)"),
    "batch_size": (TrainConfig.batch_size, int, "SGD batch size (default %(default)s)"),
    "resume": (False, None, "continue after the last completed iteration in --out"),
}
# the groups each subcommand registers and records in its manifest
_FLAGS = {
    "prove": (_PROBLEM_SET, _LIMITS, _RUN, _PREDICTOR),
    "loop": (_PROBLEM_SET, _LIMITS, _RUN, _LOOP),
    "harvest": (_PROBLEM_SET, _LIMITS),
    "analyze": (_PROBLEM_SET,),
}
_CONFIG_KEYS = {key for groups in _FLAGS.values() for group in groups for key in group}


def _read_config_file(path: str) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    for ln in read_text(path).split("\n"):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{path}: expected key=value, got {ln!r}")
        key, _, val = ln.partition("=")
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _flag_items(command: str):
    return [item for group in _FLAGS[command] for item in group.items()]


def _config_defaults(args: argparse.Namespace) -> Dict[str, object]:
    """The settings of the subcommand ``args.command`` that its
    ``--config`` file gives, each converted as its flag's value is."""
    file_cfg = _read_config_file(args.config)
    unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{args.config}: no subcommand reads config key(s) {unknown}")
    if args.command == "prove" and "temperature" in file_cfg:
        raise ValueError(f"{args.config}: prove reads no temperature key; give it in the "
                         f"predictor spec, e.g. predictor = linear:policy=F:temperature=2")
    on = ("1", "true", "yes", "on")
    return {key: file_cfg[key].lower() in on if conv is None else conv(file_cfg[key])
            for key, (_, conv, _) in _flag_items(args.command) if key in file_cfg}


def _from_fields(cls, args: argparse.Namespace):
    """A ``cls`` that takes each of its fields from the setting of that name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _problem_paths(args: argparse.Namespace) -> List[Path]:
    """The problems each spec names: a directory's ``*.p`` files, a file or
    a glob.  The default spec is ``--corpus``, else $CONTAB_CORPUS_DIR, else
    the bundled corpus; a spec that matches nothing is an error."""
    specs = args.problems or [args.corpus or os.environ.get(CORPUS_ENV) or str(corpus_dir())]
    paths: List[Path] = []
    for p in specs:
        path = Path(p)
        if path.is_dir():
            matched = sorted(path.glob("*.p"))
        elif path.exists():
            matched = [path]
        else:
            matched = sorted(Path(q) for q in globmod.glob(p))
        if not matched:
            raise FileNotFoundError(f"no problem matches {p!r}")
        paths.extend(matched)
    return paths


def _build_engines(args: argparse.Namespace) -> Tuple[List[Tuple[str, Engine]], List[Tuple[str, str]]]:
    """Returns (name, engine) pairs for the problem set plus (name, error)
    records for the problems that could not be read, parsed or clausified."""
    paths = _problem_paths(args)
    check_path_limit(args.path_limit)  # even if no problem parses
    engines: List[Tuple[str, Engine]] = []
    errors: List[Tuple[str, str]] = []
    seen = set()
    for path in paths:
        name = path.stem
        if name in seen:
            raise ValueError(f"duplicate problem name {name!r}; names must be unique")
        seen.add(name)
        try:
            matrix = load_matrix(path)
        except (ValueError, OSError) as e:
            errors.append((name, str(e)))
            continue
        engines.append((name, Engine(matrix, path_limit=args.path_limit,
                                     paramodulation=not args.no_paramodulation)))
    return engines, errors


def _engines_skipping_errors(args: argparse.Namespace) -> List[Tuple[str, Engine]]:
    """The problem set's engines, with a warning for each problem skipped."""
    engines, errors = _build_engines(args)
    for name, err in errors:
        print(f"warning: skipping {name}: {err}", file=sys.stderr)
    return engines


# the options each predictor kind reads
_SPEC_OPTIONS = {
    "uniform": set(),
    "linear": {"policy", "value", "temperature"},
    "fixed-entropy": {"policy", "value", "hstar", "seed"},
}


def _load_weights(path: str, kind: str):
    mkind, weights, temperature, _ = load_model(path)
    if mkind != kind:
        raise ValueError(f"{path}: expected a {kind} model, found a {mkind} model")
    return weights, temperature


def parse_predictor_spec(spec: str) -> Predictor:
    """Builds a predictor from a compact spec: a kind followed by
    colon-separated key=value options, e.g.
    ``linear:policy=run/policy.model:value=run/value.model:temperature=2``
    or ``fixed-entropy:hstar=0.8:seed=7:policy=run/policy.model``.  An
    option begins at a colon followed by ``name=``, so other colons stay
    in a path.  An option the kind does not read (see ``_SPEC_OPTIONS``)
    is an error.  The temperature defaults to the policy model's, else 1;
    ``hstar`` to 0.8 and ``seed`` to 0.  Fixed-entropy without a model
    wraps uniform."""
    kind, sep, rest = spec.partition(":")
    if kind not in _SPEC_OPTIONS:
        raise ValueError(f"unknown predictor kind {kind!r} in {spec!r}")
    opts: Dict[str, str] = {}
    for part in re.split(r":(?=[a-z]+=)", rest) if sep else []:
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad predictor option {part!r} in {spec!r}")
        if key not in _SPEC_OPTIONS[kind]:
            raise ValueError(f"predictor kind {kind!r} does not read option {key!r} "
                             f"in {spec!r}; it reads {sorted(_SPEC_OPTIONS[kind])}")
        if key in opts:
            raise ValueError(f"predictor option {key!r} given twice in {spec!r}")
        opts[key] = val
    if kind == "uniform":
        return UniformPredictor()
    pw = vw = None
    temp = 1.0
    if "policy" in opts:
        pw, temp = _load_weights(opts["policy"], "policy")
    if "value" in opts:
        vw, _ = _load_weights(opts["value"], "value")
    linear = LinearPredictor(pw, vw, temperature=float(opts.get("temperature", temp)))
    if kind == "linear":
        return linear
    base = linear if opts.keys() & {"policy", "value"} else UniformPredictor()
    return FixedEntropyPredictor(base, float(opts.get("hstar", 0.8)), int(opts.get("seed", 0)))


def _write_manifest(out: Path, args: argparse.Namespace, **arguments) -> None:
    """Records the subcommand's settings and its own ``arguments``, one
    ``key=value`` line each in key order."""
    settings = {key: getattr(args, key) for key, _ in _flag_items(args.command)}
    with atomic_open(out / "manifest.txt") as fh:
        fh.write(f"contab {__version__}\n")
        fh.write(f"command {args.command}\n")
        for key, val in sorted({**settings, **arguments}.items()):
            fh.write(f"{key}={val}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_prove(args) -> int:
    limits = _from_fields(SearchLimits, args)
    predictor = parse_predictor_spec(args.predictor)
    engines, errors = _build_engines(args)
    pairs = prove_problems(engines, predictor, limits, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    solved = 0
    with atomic_open(out / "results.txt") as fh:
        for name, err in errors:
            fh.write(f"problem={name} status=error detail={err!r}\n")
        for (name, _), (result, _) in zip(engines, pairs):
            trace_ref = "-"
            if result.solved:
                solved += 1
                trace_ref = f"traces/{name}.trace"
                (out / "traces").mkdir(exist_ok=True)
                write_trace(out / trace_ref, name, result.proof)
            fh.write(format_result_line(result, trace_ref) + "\n")
    _write_manifest(out, args)
    print(f"prove: {solved}/{len(engines)} solved "
          f"({len(errors)} errors), results in {out}")
    return 0


def _parse_alphas(text: str) -> List[float]:
    """The comma-separated ``--alpha`` values; each must have its own
    ``:g`` name, which names its output directory and sweep rows."""
    alphas = [float(a) for a in text.split(",")]
    seen = set()
    for a in alphas:
        if f"{a:g}" in seen:
            raise ValueError(f"--alpha {text}: the value {a:g} is given more than once")
        seen.add(f"{a:g}")
    return alphas


def cmd_loop(args) -> int:
    limits = _from_fields(SearchLimits, args)
    train_cfg = _from_fields(TrainConfig, args)
    loop_cfgs = [LoopConfig(alpha, limits, train_cfg, args.temperature)
                 for alpha in _parse_alphas(args.alpha)]
    engines = _engines_skipping_errors(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # first, so a loop that stops with an error still says how it was run,
    # but last for a resume, so a refused one keeps its checkpoint's manifest
    keep = args.resume and (out / "manifest.txt").exists()
    if not keep:
        _write_manifest(out, args)
    sweep_rows = []
    for loop_cfg in loop_cfgs:
        sub = out / f"alpha_{loop_cfg.alpha:g}" if len(loop_cfgs) > 1 else out
        result = run_loop(engines, args.iterations, loop_cfg, out_dir=str(sub),
                          resume=args.resume, workers=args.workers)
        for row in result.stats:
            sweep_rows.append([f"{loop_cfg.alpha:g}"] + row.row())
    if len(loop_cfgs) > 1:
        report_csv(out / "sweep.csv", ["alpha"] + STATS_COLUMNS, sweep_rows)
    if keep:
        _write_manifest(out, args)
    print(f"loop: {len(loop_cfgs)} alpha value(s), {args.iterations + 1} iterations each, "
          f"outputs in {out}")
    return 0


def cmd_harvest(args) -> int:
    limits = _from_fields(SearchLimits, args)
    engines = _engines_skipping_errors(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bank = harvest_states(engines, limits)
    save_bank(out / "bank.txt", bank)
    _write_manifest(out, args)
    print(f"harvest: {len(bank)} states from {len(engines)} problems into {out / 'bank.txt'}")
    return 0


def cmd_analyze(args) -> int:
    pred_a = parse_predictor_spec(args.predictor_a)
    pred_b = parse_predictor_spec(args.predictor_b)
    bank_path = Path(args.bank)
    if not bank_path.exists():
        raise FileNotFoundError(f"state bank {bank_path} not found; "
                                f"run `contab harvest` first to create one")
    engine_map = dict(_engines_skipping_errors(args))
    bank = load_bank(bank_path)
    missing = sorted({e.problem for e in bank} - set(engine_map))
    if missing:
        raise ValueError(f"bank references problems not in the problem set: {missing}")
    report = compare(pred_a, pred_b, bank, engine_map)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    label = args.label or f"{args.predictor_a} vs {args.predictor_b}"
    report_csv(out / "agreement.csv", AGREEMENT_COLUMNS,
               agreement_rows([(label, report)]))
    _write_manifest(out, args, bank=args.bank, predictor_a=args.predictor_a,
                    predictor_b=args.predictor_b, label=label)
    print(f"analyze: {report.states} states, best={report.best:.2f} "
          f"order={report.order:.2f} kl_ab={report.kl_ab:.2f} kl_ba={report.kl_ba:.2f}; "
          f"report in {out / 'agreement.csv'}")
    return 0


def cmd_check(args) -> int:
    try:
        matrix = load_matrix(args.problem)
        name, actions = read_trace(args.trace)
    except (ValueError, OSError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    # the path grows by at most one literal per action, so this limit and
    # paramodulation allow every action that any search could have taken
    engine = Engine(matrix, path_limit=len(actions) + 1, paramodulation=True)
    try:
        engine.check_proof(actions)
    except IllegalActionError as e:
        print(f"invalid proof: step {e.step}: {e}", file=sys.stderr)
        return 1
    print(f"ok: {name}: {len(actions)} actions close the tableau")
    return 0


def cmd_make_vector(args) -> int:
    vec = make_fixed_entropy_vector(args.length, args.hstar, args.seed)
    if args.reference:
        ref = [float(x) for x in args.reference.split(",")]
        if len(ref) != args.length:
            raise ValueError(f"reference has {len(ref)} entries, expected {args.length}")
        vec = apply_order_preserving(vec, ref)
    lines = "\n".join(repr(float(x)) for x in vec)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(lines + "\n")
    else:
        print(lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_command(sub, command: str, func, text: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the flag groups it reads."""
    p = sub.add_parser(command, help=text)
    # the parser too, since a --config file replaces its defaults
    p.set_defaults(func=func, parser=p)
    if command in _FLAGS:
        p.add_argument("problems", nargs="*",
                       help="problem files, directories, or globs; defaults to the "
                            f"bundled corpus (override with --corpus or ${CORPUS_ENV})")
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, (default, conv, text) in _flag_items(command):
            flag = "--" + key.replace("_", "-")
            if conv is None:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=conv, default=default() if callable(default) else default,
                               help=text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contab",
        description="Connection tableau prover with MCTS guidance and "
                    "entropy-shaped predictors.")
    parser.add_argument("--version", action="version", version=f"contab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "prove", cmd_prove, "prove problems with a configured predictor")
    _add_command(sub, "loop", cmd_loop, "alternate proving and training for several iterations")
    _add_command(sub, "harvest", cmd_harvest, "collect search states into a comparison bank")

    p = _add_command(sub, "analyze", cmd_analyze, "compare two predictors over a state bank")
    p.add_argument("--bank", required=True, help="state bank from `contab harvest`")
    p.add_argument("--predictor-a", required=True, dest="predictor_a",
                   help="predictor spec, as for prove --predictor")
    p.add_argument("--predictor-b", required=True, dest="predictor_b",
                   help="second predictor spec")
    p.add_argument("--label", help="row label in the report CSV")

    p = _add_command(sub, "check", cmd_check, "replay a proof trace against a problem")
    p.add_argument("problem", help="TPTP problem file")
    p.add_argument("trace", help="proof trace file")

    p = _add_command(sub, "make-vector", cmd_make_vector,
                     "emit a fixed normalized-entropy distribution")
    p.add_argument("--length", type=int, required=True, help="number of entries")
    p.add_argument("--hstar", type=float, required=True,
                   help="target normalized entropy in (0, 1]")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--reference", help="comma-separated probabilities whose "
                                       "ordering the output must preserve")
    p.add_argument("--out", help="write the vector here instead of stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become defaults, so parsing again lets flags win
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
