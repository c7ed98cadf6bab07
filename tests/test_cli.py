"""End-to-end command-line tests.

Each test drives main() in process with explicit --out directories, so
stdout/stderr and exit codes are checked without spawning a shell.
"""

import os
import sys
from dataclasses import fields

import numpy as np
import pytest

from contab.cli import build_parser, main, parse_predictor_spec
from contab.clausify import clausify
from contab.corpus import corpus_dir
from contab.features import FEATURE_DIM, extract_action_features
from contab.learn import LoopConfig, TrainConfig, prove_problems
from contab.policy import (FixedEntropyPredictor, LinearPredictor,
                           UniformPredictor, load_model, normalized_entropy,
                           save_model)
from contab.search import SearchLimits, format_result_line
from contab.tableau import Engine, write_trace
from contab.tptp import parse_problem_file

TRIVIAL = "fof(ax, axiom, p(a)).\nfof(c, conjecture, p(a)).\n"
CHAIN = (
    "cnf(a1, axiom, q(a)).\ncnf(a2, axiom, p(X) | ~q(X)).\n"
    "fof(c, conjecture, p(a)).\n"
)
BRANCHY = (
    "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
    "cnf(a3, axiom, ~q(X) | r(X)).\ncnf(a4, axiom, ~r(X) | q(X)).\n"
    "fof(c, conjecture, p(a)).\n"
)
DEAD = "cnf(g, negated_conjecture, ~q(a)).\ncnf(ax, axiom, p(a)).\n"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
# a problem that is not UTF-8, and one nested past the recursion limit,
# with the error each is reported by ({path} is the problem's path)
UNREADABLE = pytest.mark.parametrize("text, detail", [
    (b"fof(a, axiom, p).\n\xff\n", "{path}: " + NOT_UTF8.format(at=18)),
    (b"fof(a, axiom, " + b"~" * 3000 + b"p).\n",
     f"a formula or term nests deeper than the recursion limit ({sys.getrecursionlimit()}) "
     f"allows"),
], ids=["not-utf8", "nested-3000"])


@pytest.fixture
def problem_dir(tmp_path):
    d = tmp_path / "problems"
    d.mkdir()
    (d / "trivial.p").write_text(TRIVIAL)
    (d / "chain.p").write_text(CHAIN)
    (d / "branchy.p").write_text(BRANCHY)
    (d / "dead.p").write_text(DEAD)
    return d


def run_cli(*argv):
    return main([str(a) for a in argv])


# harvest takes the search limits but runs in one process
FAST_LIMITS = ["--inference-limit", "150", "--bigstep-frequency", "25"]
FAST = FAST_LIMITS + ["--workers", "1"]


def read_manifest(out_dir):
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    header, entries = lines[:2], lines[2:]
    return header, dict(ln.split("=", 1) for ln in entries)


class TestProve:
    def test_solves_and_writes_traces(self, problem_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("prove", problem_dir, "--out", out, *FAST) == 0
        results = (out / "results.txt").read_text()
        assert "problem=trivial status=solved" in results
        assert "problem=dead" in results
        assert (out / "traces" / "trivial.trace").exists()
        assert "trace=traces/trivial.trace" in results
        assert "/4 solved" in capsys.readouterr().out

    def test_unsolved_problem_has_no_trace(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("prove", problem_dir / "dead.p", "--out", out, *FAST)
        line = (out / "results.txt").read_text().strip()
        assert "status=solved" not in line
        assert line.endswith("trace=-")
        assert not (out / "traces" / "dead.trace").exists()

    def test_missing_problem_path_exits_2(self, tmp_path, capsys):
        code = run_cli("prove", tmp_path / "nope.p", "--out", tmp_path / "o", *FAST)
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--cp", "nan"], ["--wall-clock", "nan"],
                                       ["--cp", "inf"], ["--wall-clock", "inf"]])
    def test_non_finite_limit_exits_2_before_any_output(
            self, problem_dir, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = run_cli("prove", problem_dir, "--out", out, *flags, *FAST)
        assert code == 2
        assert "cp and wall_clock must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_path_limit_below_one_exits_2_before_any_output(
            self, problem_dir, tmp_path, capsys, limit):
        out = tmp_path / "o"
        code = run_cli("prove", problem_dir, "--out", out, "--path-limit", limit, *FAST)
        assert code == 2
        assert f"path limit must be at least 1, got {limit}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prove", "harvest"])
    def test_path_limit_is_checked_although_no_problem_parses(self, tmp_path, capsys, command):
        broken = tmp_path / "broken.p"
        broken.write_text("fof(oops, axiom, p(.\n")
        out = tmp_path / "o"
        assert run_cli(command, broken, "--out", out, "--path-limit", "0", *FAST_LIMITS) == 2
        assert "path limit must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_worker_count_below_one_exits_2(self, problem_dir, tmp_path, capsys, workers):
        out = tmp_path / "o"
        assert run_cli("prove", problem_dir, "--out", out, *FAST_LIMITS, "--workers", workers) == 2
        assert f"worker count must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_directory_without_problems_exits_2_as_an_empty_corpus_does(
            self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("no problems here\n")
        assert run_cli("prove", empty, "--out", tmp_path / "o", *FAST) == 2
        positional = capsys.readouterr().err
        assert run_cli("prove", "--corpus", empty, "--out", tmp_path / "o", *FAST) == 2
        assert capsys.readouterr().err == positional == f"error: no problem matches {str(empty)!r}\n"
        assert not (tmp_path / "o").exists()

    def test_unparsable_problem_becomes_error_record(self, problem_dir, tmp_path):
        (problem_dir / "broken.p").write_text("fof(oops, axiom, p(.\n")
        out = tmp_path / "out"
        assert run_cli("prove", problem_dir, "--out", out, *FAST) == 0
        results = (out / "results.txt").read_text()
        assert "problem=broken status=error" in results
        assert "problem=trivial status=solved" in results

    @UNREADABLE
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_problem_that_cannot_be_read_is_its_error_row(
            self, problem_dir, tmp_path, workers, text, detail):
        alone, out = tmp_path / "alone", tmp_path / "out"
        assert run_cli("prove", problem_dir, "--out", alone, *FAST_LIMITS,
                       "--workers", workers) == 0
        bad = problem_dir / "bad.p"
        bad.write_bytes(text)
        assert run_cli("prove", problem_dir, "--out", out, *FAST_LIMITS,
                       "--workers", workers) == 0
        rows = (out / "results.txt").read_text().splitlines()
        assert rows[0] == f"problem=bad status=error detail={detail.format(path=bad)!r}"
        assert rows[1:] == (alone / "results.txt").read_text().splitlines()

    @pytest.mark.parametrize("command", [
        ["harvest"], ["loop", "--iterations", "0", "--workers", "1"]], ids=["harvest", "loop"])
    def test_a_problem_that_does_not_parse_is_skipped_with_a_warning(
            self, tmp_path, capsys, command):
        problems = tmp_path / "problems"
        problems.mkdir()
        (problems / "fact.p").write_text(TRIVIAL)
        (problems / "broken.p").write_text("fof(oops, axiom, p(.\n")
        out = tmp_path / "o"
        assert run_cli(*command, problems, "--out", out, *FAST_LIMITS) == 0
        assert capsys.readouterr().err == (
            "warning: skipping broken: 1:20: expected a term, found '.'\n")
        assert (out / ("bank.txt" if command[0] == "harvest" else "stats.csv")).exists()

    def test_a_spent_wall_clock_reads_as_a_spent_budget(self, tmp_path):
        out = tmp_path / "out"
        problems = [corpus_dir() / "cases.p", corpus_dir() / "branch2.p"]
        assert run_cli("prove", *problems, "--out", out, "--wall-clock", "1e-9",
                       "--workers", "1") == 0
        assert (out / "results.txt").read_text() == "".join(
            f"problem={name} status=budget-exhausted inferences=0 playouts=0 bigsteps=0 "
            f"trace=-\n" for name in ("cases", "branch2"))

    def test_worker_count_leaves_results_identical(self, problem_dir, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        run_cli("prove", problem_dir, "--out", out1, "--inference-limit", "150",
                "--bigstep-frequency", "25", "--workers", "1")
        run_cli("prove", problem_dir, "--out", out2, "--inference-limit", "150",
                "--bigstep-frequency", "25", "--workers", "2")
        assert (out1 / "results.txt").read_bytes() == (out2 / "results.txt").read_bytes()

    def test_fixed_entropy_mode_runs(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli("prove", problem_dir / "branchy.p", "--out", out,
                       "--predictor", "fixed-entropy:hstar=0.8:seed=3", *FAST)
        assert code == 0
        _, manifest = read_manifest(out)
        assert manifest["predictor"] == "fixed-entropy:hstar=0.8:seed=3"
        assert "hstar" not in manifest

    def test_duplicate_problem_names_rejected(self, problem_dir, tmp_path, capsys):
        code = run_cli("prove", problem_dir / "chain.p", problem_dir / "chain.p",
                       "--out", tmp_path / "o", *FAST)
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_linear_spec_matches_the_library(self, tmp_path):
        """prove --predictor linear:policy=P:value=V writes what
        prove_problems writes with a LinearPredictor of the same files.
        On these corpus problems the proofs or their inference counts
        change with the policy weights, the value weights, and the
        temperature saved in the policy model."""
        problems = [corpus_dir() / f"{name}.p" for name in ("eq_fun_chain", "eq_sym", "mutual")]
        rng = np.random.default_rng(5)
        policy_file, value_file = tmp_path / "p.model", tmp_path / "v.model"
        save_model(policy_file, "policy", dict(enumerate(rng.normal(size=FEATURE_DIM))),
                   temperature=2.0)
        save_model(value_file, "value", dict(enumerate(rng.normal(size=FEATURE_DIM) * 0.01)))
        out = tmp_path / "out"
        assert run_cli("prove", *problems, "--out", out, *FAST, "--predictor",
                       f"linear:policy={policy_file}:value={value_file}") == 0

        _, pw, temperature, _ = load_model(policy_file)
        _, vw, _, _ = load_model(value_file)
        engines = [(path.stem, Engine(clausify(parse_problem_file(path)))) for path in problems]
        limits = SearchLimits(inference_limit=150, bigstep_frequency=25)
        pairs = prove_problems(engines, LinearPredictor(pw, vw, temperature=temperature),
                               limits)
        want = tmp_path / "want"
        (want / "traces").mkdir(parents=True)
        lines = []
        for (name, _), (result, _) in zip(engines, pairs):
            assert result.solved
            write_trace(want / "traces" / f"{name}.trace", name, result.proof)
            lines.append(format_result_line(result, f"traces/{name}.trace") + "\n")
        assert (out / "results.txt").read_text() == "".join(lines)
        for path in problems:
            trace = f"traces/{path.stem}.trace"
            assert (out / trace).read_bytes() == (want / trace).read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_distribution_that_is_not_finite_exits_2(self, tmp_path, capsys, workers):
        # every feature of excluded's two start actions weighs 1e308, so
        # each logit sums to +inf; two workers prove side by side
        problem = corpus_dir() / "excluded.p"
        engine = Engine(clausify(parse_problem_file(problem)))
        root = engine.root_state()
        model = tmp_path / "inf.model"
        save_model(model, "policy", {i: 1e308 for a in engine.legal_actions(root)
                                     for i in extract_action_features(root, a, engine.matrix)})
        code = run_cli("prove", problem, corpus_dir() / "branch2.p", "--out", tmp_path / "o",
                       *FAST_LIMITS,
                       "--workers", workers, "--predictor", f"linear:policy={model}")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: LinearPredictor scored a distribution over 2 actions that is not finite\n")

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_fixed_entropy_base_that_is_not_finite_exits_2(self, tmp_path, capsys):
        model = tmp_path / "inf.model"
        save_model(model, "policy", dict.fromkeys(range(FEATURE_DIM), 1e308))
        code = run_cli("prove", corpus_dir() / "excluded.p", "--out", tmp_path / "o",
                       *FAST, "--predictor", f"fixed-entropy:policy={model}")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: LinearPredictor scored a distribution over 2 actions that is not finite\n")

    @pytest.mark.parametrize("hstar", ["0", "1.5", "nan"])
    def test_a_target_entropy_outside_the_unit_interval_exits_2(self, tmp_path, capsys, hstar):
        out = tmp_path / "o"
        code = run_cli("prove", corpus_dir() / "cases.p", "--out", out, *FAST,
                       "--predictor", f"fixed-entropy:hstar={hstar}")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: target normalized entropy must be in (0, 1], got {float(hstar)}\n")
        assert not out.exists()

    def test_corpus_env_var_supplies_problems(self, problem_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTAB_CORPUS_DIR", str(problem_dir))
        out = tmp_path / "out"
        assert run_cli("prove", "--out", out, *FAST) == 0
        results = (out / "results.txt").read_text()
        assert "problem=trivial" in results


class TestManifestAndConfig:
    def test_manifest_header_and_resolved_values(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("prove", problem_dir / "trivial.p", "--out", out, *FAST)
        header, manifest = read_manifest(out)
        assert header[0].startswith("contab ")
        assert header[1] == "command prove"
        assert manifest["inference_limit"] == "150"
        assert manifest["cp"] == "1.0"
        assert "seed" not in manifest  # search has no seed

    def test_analyze_manifest_records_the_compared_specs(self, problem_dir, tmp_path):
        hout, aout = tmp_path / "h", tmp_path / "a"
        assert run_cli("harvest", problem_dir, "--out", hout, *FAST_LIMITS) == 0
        bank = hout / "bank.txt"
        assert run_cli("analyze", problem_dir, "--bank", bank, "--predictor-a", "uniform",
                       "--predictor-b", "fixed-entropy:hstar=0.5", "--label", "u-vs-f",
                       "--out", aout) == 0
        header, manifest = read_manifest(aout)
        assert header[1] == "command analyze"
        assert manifest == {"bank": str(bank), "corpus": "None", "label": "u-vs-f",
                            "no_paramodulation": "False", "out": str(aout), "path_limit": "100",
                            "predictor_a": "uniform", "predictor_b": "fixed-entropy:hstar=0.5"}
        keys = [ln.split("=", 1)[0] for ln in (aout / "manifest.txt").read_text().splitlines()[2:]]
        assert keys == sorted(keys)

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["loop"])
        for cls in (SearchLimits, TrainConfig):
            assert cls(**{f.name: getattr(args, f.name) for f in fields(cls)}) == cls()
        assert float(args.alpha) == LoopConfig().alpha
        assert args.temperature == LoopConfig().temperature
        engine = Engine(clausify(parse_problem_file(corpus_dir() / "fact.p")))
        assert args.path_limit == engine.path_limit

    @pytest.mark.parametrize("command", ["prove", "loop"])
    def test_the_worker_default_is_the_cpus_this_process_may_run_on(self, monkeypatch, command):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert build_parser().parse_args([command]).workers == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().parse_args([command]).workers == 64

    def test_flags_beat_config_file_beats_defaults(self, problem_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# fast settings\ninference_limit = 70\nbigstep-frequency = 30\n"
            "no-paramodulation = true\n\n"
        )
        out = tmp_path / "out"
        code = run_cli("prove", problem_dir / "trivial.p", "--out", out,
                       "--config", cfg, "--inference-limit", "90", "--workers", "1")
        assert code == 0
        _, manifest = read_manifest(out)
        assert manifest["inference_limit"] == "90"  # flag wins
        assert manifest["bigstep_frequency"] == "30"  # file beats default
        assert manifest["no_paramodulation"] == "True"
        assert manifest["cp"] == "1.0"  # untouched default

    def test_malformed_config_file_exits_2(self, problem_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("inference_limit 70\n")
        code = run_cli("prove", problem_dir / "trivial.p", "--out", tmp_path / "o",
                       "--config", cfg)
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_config_value_that_does_not_parse_exits_2(self, problem_dir, tmp_path, capsys):
        """The file is refused whole, also where a flag overrides the value."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("cp = x\n")
        code = run_cli("prove", problem_dir / "trivial.p", "--out", tmp_path / "o",
                       "--config", cfg, "--cp", "2", *FAST)
        assert code == 2
        assert "could not convert string to float: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_misspelt_config_key_exits_2(self, problem_dir, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("inference_limt = 5\n")
        code = run_cli("prove", problem_dir / "trivial.p", "--out", tmp_path / "o",
                       "--config", cfg, *FAST)
        assert code == 2
        assert "inference_limt" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_key_of_another_subcommand_is_accepted(self, problem_dir, tmp_path):
        """One file can serve several subcommands; each reads its own keys."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("seed = 3\niterations = 9\ninference_limit = 90\n")
        out = tmp_path / "out"
        assert run_cli("prove", problem_dir / "trivial.p", "--out", out,
                       "--config", cfg, "--workers", "1") == 0
        _, manifest = read_manifest(out)
        assert manifest["inference_limit"] == "90"
        assert "seed" not in manifest and "iterations" not in manifest

    def test_prove_config_temperature_points_at_the_spec(self, problem_dir, tmp_path, capsys):
        """prove once read a temperature key; it now lives in the predictor
        spec, so an old file fails loudly instead of running at T = 1."""
        cfg = tmp_path / "old.cfg"
        cfg.write_text("temperature = 2\n")
        code = run_cli("prove", problem_dir / "trivial.p", "--out", tmp_path / "o",
                       "--config", cfg, *FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert "temperature" in err and "predictor spec" in err
        assert not (tmp_path / "o").exists()


LOOP_FAST = ["--inference-limit", "120", "--bigstep-frequency", "20",
             "--workers", "1", "--epochs", "3"]


class TestLoop:
    def test_single_iteration_outputs(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "1",
                       *LOOP_FAST)
        assert code == 0
        stats = (out / "stats.csv").read_text().splitlines()
        assert len(stats) == 3  # header + iterations 0 and 1
        assert (out / "policy_iter1.model").exists()
        assert (out / "examples_iter0.txt").exists()

    def test_alpha_sweep_writes_one_directory_per_alpha(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "1",
                       "--alpha", "0,0.7", *LOOP_FAST)
        assert code == 0
        assert (out / "alpha_0" / "stats.csv").exists()
        assert (out / "alpha_0.7" / "stats.csv").exists()
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0].startswith("alpha,iteration,solved")
        assert len(sweep) == 1 + 2 * 2  # two alphas, two rows each

    def test_repeated_alpha_value_exits_2(self, problem_dir, tmp_path, capsys):
        """0.7 and 0.70 would share alpha_0.7/ and its sweep rows."""
        out = tmp_path / "out"
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "1",
                       "--alpha", "0,0.7,0.70", *LOOP_FAST)
        assert code == 2
        assert "0.7 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, complaint", [
        (["--temperature", "0"], "temperature must be positive"),
        (["--alpha", "0.7,-1"], "alpha must be nonnegative"),
        (["--alpha", "nan"], "alpha must be nonnegative and finite"),
        (["--learning-rate", "inf"], "batch size must be positive and finite"),
    ])
    def test_bad_setting_exits_2_before_any_output(self, problem_dir, tmp_path, capsys,
                                                   flags, complaint):
        out = tmp_path / "out"
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "1",
                       *flags, *LOOP_FAST)
        assert code == 2
        assert complaint in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, complaint", [
        (["--iterations", "-1"], "iteration count must be at least 0, got -1"),
        (["--workers", "0"], "worker count must be at least 1, got 0"),
    ], ids=["iterations", "workers"])
    def test_bad_run_size_exits_2_leaving_only_the_manifest(self, problem_dir, tmp_path,
                                                            capsys, flags, complaint):
        out = tmp_path / "out"
        assert run_cli("loop", problem_dir, "--out", out, *LOOP_FAST, *flags) == 2
        assert complaint in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]

    def test_diverged_training_exits_2(self, tmp_path, capsys):
        """The bundled corpus gives examples that a huge step throws to inf."""
        code = run_cli("loop", "--out", tmp_path / "o", "--iterations", "1",
                       "--learning-rate", "1e9", "--inference-limit", "500",
                       "--bigstep-frequency", "50", "--workers", "1", "--epochs", "3")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: loss diverged: policy=") and err.count("\n") == 1

    def test_a_loop_stopped_by_an_error_leaves_its_manifest(self, tmp_path):
        """The manifest is written before the first iteration, with the
        bytes a finished loop with the same settings leaves."""
        flags = ["--iterations", "1", "--inference-limit", "500", "--bigstep-frequency", "50",
                 "--workers", "1", "--epochs", "3"]
        diverged, finished = tmp_path / "diverged", tmp_path / "finished"
        assert run_cli("loop", "--out", diverged, *flags, "--learning-rate", "1e9") == 2
        assert not (diverged / "policy_iter1.model").exists()
        assert run_cli("loop", "--out", finished, *flags) == 0
        lines = (diverged / "manifest.txt").read_text().splitlines()
        assert lines[1] == "command loop" and "learning_rate=1000000000.0" in lines
        want = (finished / "manifest.txt").read_text().replace(
            f"out={finished}", f"out={diverged}").replace("learning_rate=0.1", "learning_rate=1000000000.0")
        assert (diverged / "manifest.txt").read_text() == want

    def test_resume_matches_uninterrupted_run(self, problem_dir, tmp_path):
        full, part = tmp_path / "full", tmp_path / "part"
        run_cli("loop", problem_dir, "--out", full, "--iterations", "2", *LOOP_FAST)
        run_cli("loop", problem_dir, "--out", part, "--iterations", "1", *LOOP_FAST)
        code = run_cli("loop", problem_dir, "--out", part, "--iterations", "2",
                       "--resume", *LOOP_FAST)
        assert code == 0
        assert (part / "stats.csv").read_bytes() == (full / "stats.csv").read_bytes()
        assert read_manifest(part)[1]["iterations"] == "2"

    @pytest.mark.parametrize("flags", [["--alpha", "5"], ["--workers", "0"]],
                             ids=["alpha", "workers"])
    def test_a_refused_resume_leaves_the_manifest(self, problem_dir, tmp_path, flags):
        """A resumed loop writes its manifest only once its loops return."""
        out = tmp_path / "out"
        assert run_cli("loop", problem_dir, "--out", out, "--iterations", "1", *LOOP_FAST) == 0
        manifest = (out / "manifest.txt").read_bytes()
        assert run_cli("loop", problem_dir, "--out", out, "--iterations", "2", "--resume",
                       *LOOP_FAST, *flags) == 2
        assert (out / "manifest.txt").read_bytes() == manifest

    def test_a_resume_with_no_manifest_to_keep_writes_it_first(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        assert run_cli("loop", problem_dir, "--out", out, "--resume", *LOOP_FAST,
                       "--workers", "0") == 2
        assert read_manifest(out)[1]["workers"] == "0"

    def test_resume_drops_the_row_of_an_unrecorded_iteration(self, problem_dir, tmp_path):
        """stats.csv is written before loop_state.txt; a run stopped between
        the two resumes into the same files as an uninterrupted one."""
        full, part = tmp_path / "full", tmp_path / "part"
        run_cli("loop", problem_dir, "--out", full, "--iterations", "2", *LOOP_FAST)
        run_cli("loop", problem_dir, "--out", part, "--iterations", "2", *LOOP_FAST)
        state = part / "loop_state.txt"
        state.write_text(state.read_text().replace("completed 2\n", "completed 1\n"))
        code = run_cli("loop", problem_dir, "--out", part, "--iterations", "2",
                       "--resume", *LOOP_FAST)
        assert code == 0
        assert (part / "stats.csv").read_bytes() == (full / "stats.csv").read_bytes()

    def test_resume_with_other_settings_exits_2(self, problem_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("loop", problem_dir, "--out", out, "--iterations", "1", "--alpha", "0.7",
                *LOOP_FAST)
        stats = (out / "stats.csv").read_bytes()
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "2", "--alpha", "5",
                       "--temperature", "3", "--resume", *LOOP_FAST)
        assert code == 2
        assert "cannot resume: alpha is 5.0 here but 0.7 in the checkpoint" in capsys.readouterr().err
        assert (out / "stats.csv").read_bytes() == stats
        assert not (out / "policy_iter2.model").exists()

    @pytest.mark.parametrize("name, keep, bad_line, complaint", [
        ("stats.csv", 1, "0,30", "not enough values to unpack (expected 5, got 2)"),
        ("examples_iter0.txt", None, "chain\t0\t0.5",
         "not enough values to unpack (expected 5, got 3)"),
        ("examples_iter0.txt", None, "chain\t0\tnan\t0.5,0.5\t1:1\t2:1\t3:1",
         "value target 'nan' is not finite"),
        ("examples_iter0.txt", None, "chain\t0\t0.5\t0.5,0.5\t99999:1\t2:1\t3:1",
         f"feature index 99999 outside [0, {FEATURE_DIM})"),
        ("examples_iter0.txt", None, "chain\t0\t0.5\t0.5,0.5\t-5:1\t2:1\t3:1",
         f"feature index -5 outside [0, {FEATURE_DIM})"),
        ("examples_iter0.txt", None, f"chain\t0\t0.5\t0.5,0.5\t1:1\t2:1\t{FEATURE_DIM}:1",
         f"feature index {FEATURE_DIM} outside [0, {FEATURE_DIM})"),
    ], ids=["short-stats-row", "short-examples-line", "nan-value-target",
            "state-index-past-dim", "negative-state-index", "action-index-at-dim"])
    def test_resume_over_a_malformed_line_exits_2(self, problem_dir, tmp_path, capsys,
                                                  name, keep, bad_line, complaint):
        out = tmp_path / "out"
        run_cli("loop", problem_dir, "--out", out, "--iterations", "1", *LOOP_FAST)
        path = out / name
        lines = path.read_text().splitlines()[:keep] + [bad_line]
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "2", "--resume",
                       *LOOP_FAST)
        assert code == 2
        assert f"{path}:{len(lines)}: {complaint}" in capsys.readouterr().err

    def test_resume_over_an_empty_stats_file_exits_2(self, problem_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("loop", problem_dir, "--out", out, "--iterations", "1", *LOOP_FAST)
        (out / "stats.csv").write_text("")
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "2", "--resume",
                       *LOOP_FAST)
        assert code == 2
        assert f"{out / 'stats.csv'}:1: no header row" in capsys.readouterr().err

    @pytest.mark.parametrize("line, complaint", [
        ("completed x", "completed: invalid literal for int() with base 10: 'x'"),
        ("alpha zero", "alpha: could not convert string to float: 'zero'"),
    ], ids=["completed", "alpha"])
    def test_resume_over_a_non_numeric_state_value_exits_2(self, problem_dir, tmp_path, capsys,
                                                           line, complaint):
        out = tmp_path / "out"
        run_cli("loop", problem_dir, "--out", out, "--iterations", "1", *LOOP_FAST)
        state = out / "loop_state.txt"
        key = line.split()[0]
        lines = [line if ln.split()[0] == key else ln for ln in state.read_text().splitlines()]
        state.write_text("\n".join(lines) + "\n")
        code = run_cli("loop", problem_dir, "--out", out, "--iterations", "2", "--resume",
                       *LOOP_FAST)
        assert code == 2
        assert f"{state}: {complaint}" in capsys.readouterr().err


class TestFlagSurface:
    """Each subcommand takes, resolves and records only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--bank", "bank.txt", "--predictor-a", "uniform",
         "--predictor-b", "uniform", "--workers", "1"],
        ["harvest", "--seed", "1"],
        ["prove", "--hstar", "0.8"],
        ["loop", "--alpha-sweep", "0,1"],
    ])
    def test_unread_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_manifests_record_only_read_keys(self, problem_dir, tmp_path):
        prove_out, loop_out, harvest_out = tmp_path / "p", tmp_path / "l", tmp_path / "h"
        problem = problem_dir / "trivial.p"
        assert run_cli("prove", problem, "--out", prove_out, *FAST) == 0
        assert run_cli("loop", problem, "--out", loop_out, "--iterations", "0",
                       "--seed", "4", *LOOP_FAST) == 0
        assert run_cli("harvest", problem, "--out", harvest_out, *FAST_LIMITS) == 0
        assert "seed" not in read_manifest(prove_out)[1]
        assert read_manifest(loop_out)[1]["seed"] == "4"
        assert set(read_manifest(harvest_out)[1]) == {
            "corpus", "path_limit", "no_paramodulation", "out",
            "inference_limit", "bigstep_frequency", "cp", "wall_clock"}

    def test_loop_seed_changes_the_trained_model(self, tmp_path):
        """The bundled corpus gives examples with more than one action."""
        models = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            assert run_cli("loop", "--out", out, "--iterations", "1", "--seed", seed,
                           "--inference-limit", "300", "--bigstep-frequency", "20",
                           "--workers", "1", "--epochs", "3") == 0
            models.append((out / "policy_iter1.model").read_bytes())
        assert models[0] != models[1]


class TestHarvestAnalyze:
    def test_harvest_then_self_analyze(self, problem_dir, tmp_path, capsys):
        hout, aout = tmp_path / "h", tmp_path / "a"
        assert run_cli("harvest", problem_dir, "--out", hout, *FAST_LIMITS) == 0
        bank_file = hout / "bank.txt"
        assert bank_file.exists()
        assert "states" in capsys.readouterr().out
        code = run_cli("analyze", problem_dir, "--bank", bank_file,
                       "--predictor-a", "uniform", "--predictor-b", "uniform",
                       "--label", "u-vs-u", "--out", aout)
        assert code == 0
        lines = (aout / "agreement.csv").read_text().splitlines()
        assert lines[0] == "comparison,states,best,order,kl_ab,kl_ba,infinite_ab,infinite_ba"
        cells = lines[1].split(",")
        assert cells[0] == "u-vs-u"
        assert cells[2] == "1.00" and cells[3] == "1.00"
        assert cells[4] == "0.00" and cells[5] == "0.00"

    def test_missing_bank_points_at_harvest(self, problem_dir, tmp_path, capsys):
        code = run_cli("analyze", problem_dir, "--bank", tmp_path / "absent.txt",
                       "--predictor-a", "uniform", "--predictor-b", "uniform",
                       "--out", tmp_path / "a")
        assert code == 2
        assert "harvest" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, complaint", [
        # the fact the harvested path extends with no longer unifies
        (None, "rule_pick: bank step 5 'extension 1 0' is not a legal action"),
        # clause indices past either end of the matrix: the first replays
        # and is refused, the second does not decode, so loading refuses it
        ("start 40;", "rule_pick: bank step 1 'start 40' is not a legal action"),
        ("start -1;", "{bank}:2: malformed action line 'start -1': negative index"),
        # at(one) is a clause no search starts from
        ("start 3;", "rule_pick: bank step 1 'start 3' is not a legal action"),
        # a step is decoded as strictly as a trace line
        ("start 4 9;", "{bank}:2: malformed action line 'start 4 9': "
                       "a start action has 2 fields, not 3"),
    ], ids=["problem-edited", "index-past-end", "negative-index", "non-start-clause",
            "extra-field"])
    def test_bank_that_does_not_replay_exits_2(self, tmp_path, capsys, damage, complaint):
        text = (corpus_dir() / "rule_pick.p").read_text()
        problems, hout = tmp_path / "problems", tmp_path / "h"
        problems.mkdir()
        (problems / "rule_pick.p").write_text(text)
        assert run_cli("harvest", problems, "--out", hout, *FAST_LIMITS) == 0
        bank = hout / "bank.txt"
        assert "start 4;extension 0 2;" in bank.read_text()
        if damage is None:
            (problems / "rule_pick.p").write_text(
                text.replace("step(one, two)", "step(one, four)"))
        else:
            bank.write_text(bank.read_text().replace("start 4;", damage))
        code = run_cli("analyze", problems, "--bank", bank, "--predictor-a", "uniform",
                       "--predictor-b", "uniform", "--out", tmp_path / "a")
        assert code == 2
        assert complaint.format(bank=bank) in capsys.readouterr().err

    def test_malformed_bank_line_exits_2(self, problem_dir, tmp_path, capsys):
        hout = tmp_path / "h"
        assert run_cli("harvest", problem_dir, "--out", hout, *FAST_LIMITS) == 0
        bank = hout / "bank.txt"
        lines = bank.read_text().splitlines() + ["broken line"]
        bank.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", problem_dir, "--bank", bank, "--predictor-a", "uniform",
                       "--predictor-b", "uniform", "--out", tmp_path / "a")
        assert code == 2
        assert (f"{bank}:{len(lines)}: not enough values to unpack (expected 3, got 1)"
                in capsys.readouterr().err)

    def test_zero_action_entry_exits_2(self, tmp_path, capsys):
        # the path reaches chain1's closed tableau, where no action is left
        problems = tmp_path / "problems"
        problems.mkdir()
        (problems / "chain1.p").write_text((corpus_dir() / "chain1.p").read_text())
        bank = tmp_path / "bank.txt"
        bank.write_text("contab-bank v1\nchain1\tstart 2;extension 1 1;extension 0 0\t0\n")
        code = run_cli("analyze", problems, "--bank", bank, "--predictor-a", "uniform",
                       "--predictor-b", "uniform", "--out", tmp_path / "a")
        assert code == 2
        assert f"{bank}:2: a bank state has at least 2 actions, got 0" in capsys.readouterr().err

    def test_bank_against_wrong_problem_set_exits_2(self, problem_dir, tmp_path, capsys):
        hout = tmp_path / "h"
        run_cli("harvest", problem_dir, "--out", hout, *FAST_LIMITS)
        code = run_cli("analyze", problem_dir / "trivial.p", "--bank",
                       hout / "bank.txt", "--predictor-a", "uniform",
                       "--predictor-b", "uniform", "--out", tmp_path / "a")
        assert code == 2
        assert "not in the problem set" in capsys.readouterr().err


class TestPredictorSpecs:
    def test_plain_kinds(self):
        assert isinstance(parse_predictor_spec("uniform"), UniformPredictor)
        assert isinstance(parse_predictor_spec("linear"), LinearPredictor)
        fixed = parse_predictor_spec("fixed-entropy:hstar=0.5:seed=3")
        assert isinstance(fixed, FixedEntropyPredictor)

    def test_temperature_option(self):
        pred = parse_predictor_spec("linear:temperature=3")
        assert pred.temperature == 3.0

    def test_model_path_may_contain_a_colon(self, tmp_path):
        run = tmp_path / "run-12:30"
        run.mkdir()
        save_model(run / "p.model", "policy", {0: 0.5}, temperature=2.5)
        save_model(run / "v.model", "value", {0: -0.5})
        linear = parse_predictor_spec(
            f"linear:policy={run}/p.model:value={run}/v.model:temperature=3")
        assert linear.policy_weights[0] == 0.5 and linear.value_weights[0] == -0.5
        assert linear.temperature == 3.0
        fixed = parse_predictor_spec(f"fixed-entropy:seed=4:policy={run}/p.model")
        assert (fixed.base.temperature, fixed.seed) == (2.5, 4)

    def test_unknown_kind_or_option_rejected(self):
        with pytest.raises(ValueError):
            parse_predictor_spec("magic")
        with pytest.raises(ValueError):
            parse_predictor_spec("uniform:volume=11")
        with pytest.raises(ValueError):
            parse_predictor_spec("uniform:temperature")

    @pytest.mark.parametrize("spec, option", [
        ("uniform:hstar=0.3", "hstar"),
        ("linear:seed=3", "seed"),
        ("uniform:policy=p.model", "policy"),
        ("linear:temperature=2:temperature=3", "temperature"),
        ("uniform:temperature=3", "temperature"),
        ("fixed-entropy:temperature=2", "temperature"),
    ])
    def test_unread_or_repeated_option_is_rejected(self, spec, option):
        with pytest.raises(ValueError, match=repr(option)):
            parse_predictor_spec(spec)

    def test_prove_rejects_an_unread_spec_option(self, problem_dir, tmp_path, capsys):
        code = run_cli("prove", problem_dir / "trivial.p", "--out", tmp_path / "o",
                       "--predictor", "uniform:hstar=0.3", *FAST)
        assert code == 2
        assert "'hstar'" in capsys.readouterr().err

    def test_prove_checks_the_spec_before_reading_problems(self, tmp_path, capsys):
        code = run_cli("prove", tmp_path / "missing.p", "--out", tmp_path / "o",
                       "--predictor", "linear:seed=3", *FAST)
        assert code == 2
        assert "'seed'" in capsys.readouterr().err

    def test_prove_rejects_a_nonpositive_temperature_before_any_output(
            self, problem_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("prove", problem_dir, "--out", out,
                       "--predictor", "linear:temperature=0", *FAST)
        assert code == 2
        assert "temperature must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, complaint", [
        ("kind policy\n", "model header lacks"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature 1.0\nalpha 0.7\nnonzero 1\n99999 1.0\n",
         "weight index 99999 outside dim"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature 1.0\nalpha 0.7\nnonzero 1\n-1 1.0\n",
         "weight index -1 outside dim"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature 1.0\nalpha 0.7\nnonzero 1\n3\n",
         "malformed model file: not enough values to unpack"),
        ("kind policy\ndim abc\ntemperature 1.0\nalpha 0.7\nnonzero 0\n",
         "malformed model file: invalid literal for int()"),
        ("kind policy\ndim 16\ntemperature 1.0\nalpha 0.7\nnonzero 1\n3 1.0\n",
         f"model dim 16 is not the feature dimension {FEATURE_DIM}"),
        ("kind policy\ndim 100000000000000\ntemperature 1.0\nalpha 0.7\nnonzero 0\n",
         f"model dim 100000000000000 is not the feature dimension {FEATURE_DIM}"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature 1.0\nalpha 0.7\nnonzero 2\n3 1.0\n",
         "header counts 2 weights, 1 follow"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature -1.0\nalpha 0.7\nnonzero 0\n",
         "temperature -1.0 is not positive"),
        (f"kind policy\ndim {FEATURE_DIM}\ntemperature 0.0\nalpha 0.7\nnonzero 0\n",
         "temperature 0.0 is not positive"),
    ], ids=["no-dim", "index-past-dim", "negative-index", "weight-line-without-value",
            "non-integer-dim", "other-dim", "huge-dim", "truncated", "negative-temperature",
            "zero-temperature"])
    def test_damaged_model_file_exits_2(self, problem_dir, tmp_path, capsys, body, complaint):
        model = tmp_path / "bad.model"
        model.write_text("contab-model v1\n" + body)
        code = run_cli("prove", problem_dir, "--out", tmp_path / "o",
                       "--predictor", f"linear:policy={model}", *FAST)
        assert code == 2
        assert f"{model}: {complaint}" in capsys.readouterr().err

    def test_fixed_entropy_defaults_and_model_temperature(self, tmp_path):
        policy_file = tmp_path / "p.model"
        save_model(policy_file, "policy", {0: 0.5}, temperature=2.5)
        fixed = parse_predictor_spec("fixed-entropy")
        assert isinstance(fixed.base, UniformPredictor)
        assert (fixed.target, fixed.seed) == (0.8, 0)
        fixed = parse_predictor_spec(f"fixed-entropy:policy={policy_file}:seed=7")
        assert isinstance(fixed.base, LinearPredictor)
        assert (fixed.base.temperature, fixed.seed) == (2.5, 7)
        linear = parse_predictor_spec(f"linear:policy={policy_file}:temperature=4")
        assert linear.temperature == 4.0
        with pytest.raises(ValueError, match="expected a value model"):
            parse_predictor_spec(f"linear:value={policy_file}")


class TestCheck:
    def prove_chain(self, problem_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("prove", problem_dir / "chain.p", "--out", out, *FAST)
        return problem_dir / "chain.p", out / "traces" / "chain.trace"

    def test_valid_trace_passes(self, problem_dir, tmp_path, capsys):
        problem, trace = self.prove_chain(problem_dir, tmp_path)
        assert run_cli("check", problem, trace) == 0
        assert "ok: chain" in capsys.readouterr().out

    def test_truncated_trace_fails_with_exit_1(self, problem_dir, tmp_path, capsys):
        problem, trace = self.prove_chain(problem_dir, tmp_path)
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("check", problem, trace) == 1
        # the header and the dropped line leave len(lines) - 2 actions
        assert capsys.readouterr().err == (f"invalid proof: step {len(lines) - 2}: "
                                           f"tableau not closed after the last action\n")

    def test_an_illegal_step_fails_with_exit_1_naming_it(self, problem_dir, tmp_path, capsys):
        problem, trace = self.prove_chain(problem_dir, tmp_path)
        lines = trace.read_text().splitlines()
        lines[2] = "extension 9 9"
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("check", problem, trace) == 1
        assert capsys.readouterr().err == (
            "invalid proof: step 1: 'extension 9 9' is not a legal action\n")

    @UNREADABLE
    def test_a_problem_that_cannot_be_read_exits_2(self, problem_dir, tmp_path, capsys,
                                                    text, detail):
        problem, trace = self.prove_chain(problem_dir, tmp_path)
        problem.write_bytes(text)
        assert run_cli("check", problem, trace) == 2
        assert capsys.readouterr().err == f"parse error: {detail.format(path=problem)}\n"

    def test_proof_deeper_than_the_default_path_limit_checks(self, tmp_path, capsys):
        """The checker replays under no path limit a trace can reach, so a
        proof found with a raised --path-limit still checks."""
        n = 105
        lines = ["cnf(base, axiom, p0(a))."]
        lines += [f"cnf(r{i}, axiom, p{i + 1}(X) | ~p{i}(X))." for i in range(n)]
        lines.append(f"fof(goal, conjecture, p{n}(a)).")
        problem = tmp_path / "long.p"
        problem.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("prove", problem, "--out", out, "--path-limit", "200",
                       "--workers", "1") == 0
        assert run_cli("check", problem, out / "traces" / "long.trace") == 0
        assert "ok: long: 107 actions" in capsys.readouterr().out

    def test_trace_line_with_an_extra_field_exits_2_naming_the_line(
            self, problem_dir, tmp_path, capsys):
        problem, trace = self.prove_chain(problem_dir, tmp_path)
        lines = trace.read_text().splitlines()
        assert lines[1].startswith("start ")
        lines[1] += " 99"
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("check", problem, trace) == 2
        assert f"{trace}:2: malformed action line '{lines[1]}'" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, problem_dir, tmp_path):
        assert run_cli("check", problem_dir / "chain.p", tmp_path / "no.trace") == 2


@pytest.mark.parametrize("argv", [
    ["check", "{problems}/chain.p", "{bad}"],
    ["prove", "{problems}", "--predictor", "linear:policy={bad}", "--out", "{out}"],
    ["analyze", "{problems}", "--bank", "{bad}", "--predictor-a", "uniform",
     "--predictor-b", "uniform", "--out", "{out}"],
    ["prove", "{problems}", "--config", "{bad}", "--out", "{out}"],
], ids=["trace", "model", "bank", "config"])
def test_an_input_that_is_not_utf8_exits_2_naming_it(problem_dir, tmp_path, capsys, argv):
    bad = tmp_path / "input"
    bad.write_bytes(b"\xff\n")
    argv = [a.format(problems=problem_dir, bad=bad, out=tmp_path / "o") for a in argv]
    assert run_cli(*argv) == 2
    prefix = "parse error" if argv[0] == "check" else "error"
    assert capsys.readouterr().err == f"{prefix}: {bad}: {NOT_UTF8.format(at=0)}\n"


class TestMakeVector:
    def test_prints_requested_distribution(self, capsys):
        assert run_cli("make-vector", "--length", "5", "--hstar", "0.8",
                       "--seed", "1") == 0
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert len(values) == 5
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        assert normalized_entropy(values) == pytest.approx(0.8, abs=1e-5)

    def test_reference_fixes_the_ordering(self, capsys):
        run_cli("make-vector", "--length", "3", "--hstar", "0.5", "--seed", "0",
                "--reference", "0.1,0.8,0.1")
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert values[1] == max(values)

    def test_reference_length_mismatch_exits_2(self, capsys):
        code = run_cli("make-vector", "--length", "4", "--hstar", "0.5",
                       "--reference", "0.5,0.5")
        assert code == 2
        assert "expected 4" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_reference_entry_that_is_not_finite_exits_2(self, bad, capsys):
        code = run_cli("make-vector", "--length", "3", "--hstar", "0.5", "--seed", "1",
                       "--reference", f"1,{bad},2")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: reference entry 1 is {bad}, not finite\n"

    def test_out_file(self, tmp_path):
        dest = tmp_path / "vec.txt"
        assert run_cli("make-vector", "--length", "6", "--hstar", "0.95",
                       "--out", dest) == 0
        values = [float(x) for x in dest.read_text().split()]
        assert len(values) == 6
        assert normalized_entropy(values) == pytest.approx(0.95, abs=1e-5)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("contab ")

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("prove", "loop", "harvest", "analyze", "check", "make-vector"):
            assert name in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2
