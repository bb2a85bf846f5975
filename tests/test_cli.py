"""Command line surface: exit codes, error JSON, file outputs, determinism.

All invocations go through main(argv) in process, with stdout/stderr
redirected at the sys level so the tests read the same bytes a shell would.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

import bpac.cli
import bpac.simulation
from bpac.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main
from bpac.simulation import UniformScore, generate_event, uniform_linear
from bpac.traces import write_trace
from reference import read_trajectory

DIGEST_MATRIX = Path(__file__).resolve().parents[1] / "scripts" / "digest_matrix.py"


def run_cli(*argv):
    # redirect at the sys level rather than relying on pytest capture,
    # so these assertions survive -s runs
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        code = main(list(argv))
    return code, out_buf.getvalue(), err_buf.getvalue()


def stderr_error(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])["error"]


@pytest.fixture
def no_replication(monkeypatch):
    """Fail the test if the CLI starts a replication."""
    def refuse(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(bpac.cli, "run_replication", refuse)


def write_config(tmp_path, **overrides):
    doc = {"epsilon": 0.08, "alpha": 0.1}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_happy_path_outputs(self, tmp_path, ):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            "simulate", "--out", str(out), "--horizon", "120",
            "--seeds", "3", "--emit-wealth-every", "60")
        assert code == EXIT_OK
        assert (out / "trajectory_bpac_seed3.csv").exists()
        assert (out / "wealth_bpac_seed3.csv").exists()
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["seeds"] == [3]
        assert summary["replications"][0]["escalations"] >= 1
        line = json.loads(stdout)
        assert line == {"command": "simulate", "out": str(out), "replications": 1}

    def test_zero_horizon_gives_empty_run(self, tmp_path, ):
        out = tmp_path / "empty"
        code, _, _ = run_cli(
            "simulate", "--out", str(out), "--horizon", "0")
        assert code == EXIT_OK
        csv_lines = (out / "trajectory_bpac_seed0.csv").read_text().splitlines()
        assert len(csv_lines) == 2  # hash header + column header
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["aggregate"]["mean_final_ecp"] is None
        assert summary["replications"][0]["final_u_hat"] is None

    def test_multiple_seeds_and_aggregate(self, tmp_path, ):
        out = tmp_path / "multi"
        code, _, _ = run_cli(
            "simulate", "--out", str(out), "--horizon", "80",
            "--n-seeds", "3", "--base-seed", "10", "--emit-wealth-every", "0")
        assert code == EXIT_OK
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["seeds"] == [10, 11, 12]
        assert 0.0 <= summary["aggregate"]["mean_final_ecp"] <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path, ):
        args = ["simulate", "--horizon", "150", "--seeds", "5,6",
                "--emit-wealth-every", "50"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a))[0] == EXIT_OK
        assert run_cli(*args, "--out", str(b))[0] == EXIT_OK
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_other_methods_run(self, tmp_path, ):
        for method in ("o_naive", "ips_hoeff"):
            out = tmp_path / method
            code, _, _ = run_cli(
                "simulate", "--out", str(out), "--horizon", "60",
                "--method", method)
            assert code == EXIT_OK
            assert (out / f"trajectory_{method}_seed0.csv").exists()


class TestErrorPaths:
    def test_invalid_config_names_the_key(self, tmp_path, ):
        config = write_config(tmp_path, epsilon=-0.5)
        code, _, err = run_cli(
            "simulate", "--config", str(config),
            "--out", str(tmp_path / "x"), "--horizon", "10")
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert error["kind"] == "config"
        assert error["key"] == "epsilon"
        assert error["violations"][0]["code"] == "BadValue"

    def test_unknown_method(self, tmp_path, ):
        code, _, err = run_cli(
            "simulate", "--out", str(tmp_path / "x"),
            "--horizon", "10", "--method", "oracle")
        assert code == EXIT_INVALID
        assert stderr_error(err)["key"] == "method"

    def test_bad_spec_file_names_segment(self, tmp_path, ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"segments": [
            {"length": None, "score": {"kind": "uniform"},
             "loss": {"kind": "cubic"}}]}))
        code, _, err = run_cli(
            "simulate", "--out", str(tmp_path / "x"),
            "--spec", str(spec_path), "--horizon", "10")
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert error["kind"] == "spec"
        assert error["key"] == "segments[0].loss"

    def test_null_config_value_names_the_key(self, tmp_path):
        config = write_config(tmp_path, epsilon=None)
        code, _, err = run_cli("simulate", "--config", str(config),
                               "--out", str(tmp_path / "x"), "--horizon", "10")
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert (error["kind"], error["key"]) == ("config", "epsilon")

    @pytest.mark.parametrize("kind, flag, text", [
        ("config", "--config", '{"epsilon": 0.05, "epsilon": 0.2}'),
        ("spec", "--spec", '{"segments": [{"score": {"kind": "uniform"},'
                           ' "loss": {"kind": "linear", "kappa": 0.5, "kappa": 0.9}}]}'),
    ], ids=["config", "spec"])
    def test_duplicated_json_key_exits_invalid(self, tmp_path, no_replication, kind, flag,
                                               text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, stdout, err = run_cli("simulate", flag, str(path),
                                    "--out", str(tmp_path / "x"), "--horizon", "10")
        assert (code, stdout) == (EXIT_INVALID, "")
        error = stderr_error(err)
        assert (error["kind"], error["key"]) == (kind, "<file>")
        assert "duplicate key" in error["message"]

    @pytest.mark.parametrize("kind, flag, key", [("config", "--config", "prior"),
                                                 ("spec", "--spec", "segments")],
                             ids=["config", "spec"])
    def test_json_nested_too_deeply_exits_invalid(self, tmp_path, no_replication, kind, flag,
                                                  key):
        """Nesting past Python's recursion limit is a bad file, not a crash."""
        path = tmp_path / "doc.json"
        path.write_text(f'{{"{key}": {"[" * 100_000}{"]" * 100_000}}}')
        code, stdout, err = run_cli("simulate", flag, str(path),
                                    "--out", str(tmp_path / "x"), "--horizon", "10")
        assert (code, stdout) == (EXIT_INVALID, "")
        error = stderr_error(err)
        assert (error["kind"], error["key"]) == (kind, "<file>")
        assert error["message"].endswith("not valid JSON: nested too deeply to parse")

    @pytest.mark.parametrize("doc, key", [
        ({"segments": 3}, "segments"),
        ({"segments": [{"score": {"kind": "uniform"},
                        "loss": {"kind": "power", "degree": float("nan")}}]},
         "segments[0].loss"),
    ])
    def test_malformed_spec_exits_invalid(self, tmp_path, doc, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        code, _, err = run_cli("mc-safety", "--spec", str(spec_path),
                               "--horizon", "300", "--n-reps", "5")
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert (error["kind"], error["key"]) == ("spec", key)

    @pytest.mark.parametrize("command", ["simulate", "replay", "mc-safety", "sweep"])
    @pytest.mark.parametrize("method", ["o_naive", "ips_hoeff"])
    def test_fixed_wager_rejected_for_baselines(self, tmp_path, command, method):
        trace = tmp_path / "trace.csv"
        rng = np.random.default_rng(3)
        write_trace(trace, [generate_event(uniform_linear(), rng, t) for t in range(1, 11)])
        source = {"replay": ["--trace", str(trace)],
                  "mc-safety": ["--horizon", "10", "--n-reps", "2"]}.get(
                      command, ["--horizon", "10"])
        out = tmp_path / "x"
        code, stdout, err = run_cli(command, "--method", method, "--fixed-wager", "0.02",
                                    "--out", str(out), *source)
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert not out.exists()

    def test_missing_trace_file(self, tmp_path, ):
        code, _, err = run_cli(
            "replay", "--out", str(tmp_path / "x"),
            "--trace", str(tmp_path / "nope.csv"))
        assert code == EXIT_INVALID
        assert stderr_error(err)["kind"] == "io"

    @pytest.mark.parametrize("case", ["config_dir", "spec_dir", "trace_dir", "out_file"])
    def test_unreadable_path_is_io(self, tmp_path, case):
        a_dir, a_file = tmp_path / "adir", tmp_path / "afile"
        a_dir.mkdir()
        a_file.write_text("")
        out = ["--out", str(tmp_path / "x")]
        argv, path = {
            "config_dir": (["simulate", "--config", str(a_dir), *out], a_dir),
            "spec_dir": (["simulate", "--spec", str(a_dir), *out], a_dir),
            "trace_dir": (["replay", "--trace", str(a_dir), *out], a_dir),
            "out_file": (["simulate", "--horizon", "5", "--out", str(a_file)], a_file),
        }[case]
        code, _, err = run_cli(*argv)
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert (error["kind"], error["key"]) == ("io", str(path))

    def test_io_error_without_a_file_has_no_key(self, tmp_path, monkeypatch):
        def broken(path):
            raise OSError("device went away")

        monkeypatch.setattr(bpac.cli, "load_trace", broken)
        code, _, err = run_cli("replay", "--trace", "t.csv", "--out", str(tmp_path / "x"))
        assert code == EXIT_INVALID
        assert stderr_error(err) == {"kind": "io", "message": "device went away"}

    def test_bad_trace_row_number_in_key(self, tmp_path, ):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "index,uncertainty,loss,tokens_cheap,tokens_expensive\n"
            "1,0.5,0.0,100,500\n"
            "2,0.5,2.5,100,500\n")
        code, _, err = run_cli(
            "replay", "--out", str(tmp_path / "x"), "--trace", str(trace))
        assert code == EXIT_INVALID
        error = stderr_error(err)
        assert error["kind"] == "trace"
        assert error["key"] == "row:2"

    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare", "ablate --preset lambda"])
    def test_horizon_past_bounded_stream_is_runtime(self, tmp_path, command):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"segments": [
            {"length": 20, "score": {"kind": "uniform"},
             "loss": {"kind": "linear"}}]}))
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            *command.split(), "--out", str(out),
            "--spec", str(spec_path), "--horizon", "21")
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr_error(err)["kind"] == "runtime"
        assert "exceeds the stream's total length 20" in stderr_error(err)["message"]
        assert not out.exists()

    def test_unallocatable_horizon_is_runtime(self, tmp_path):
        # compare sizes its curve sums from --horizon: 8 PB per array, more
        # than any address space, so the allocation fails at once
        out = tmp_path / "x"
        code, stdout, err = run_cli("compare", "--out", str(out),
                                    "--horizon", str(10 ** 15), "--n-seeds", "1")
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr_error(err)["kind"] == "runtime"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "replay", "sweep"])
    def test_infeasible_fixed_wager_is_runtime(self, tmp_path, command):
        trace = tmp_path / "trace.csv"
        rng = np.random.default_rng(3)
        write_trace(trace, [generate_event(uniform_linear(), rng, t) for t in range(1, 11)])
        source = ["--trace", str(trace)] if command == "replay" else ["--horizon", "10"]
        out = tmp_path / "x"
        code, stdout, err = run_cli(command, "--out", str(out), "--fixed-wager", "0.5", *source)
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert "fixed wager 0.5 must lie in" in stderr_error(err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    def test_non_finite_score_is_runtime(self, tmp_path, monkeypatch, method):
        events = bpac.simulation.stream_events

        def nan_events(spec, stream, horizon):
            for event in events(spec, stream, horizon):
                yield dataclasses.replace(event, uncertainty=float("nan"))

        monkeypatch.setattr(bpac.simulation, "stream_events", nan_events)
        code, _, err = run_cli("simulate", "--out", str(tmp_path / "x"),
                               "--horizon", "10", "--method", method)
        assert code == EXIT_RUNTIME
        error = stderr_error(err)
        assert error["kind"] == "runtime"
        assert "not finite" in error["message"]

    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    def test_non_finite_block_drawn_score_is_runtime(self, tmp_path, monkeypatch, method):
        # uniform_linear is drawn in blocks, whose scores come from UniformScore.at
        monkeypatch.setattr(UniformScore, "at", lambda self, u: np.where(
            np.arange(np.size(u)) == 3, np.nan, np.asarray(u, dtype=float)))
        code, _, err = run_cli("simulate", "--out", str(tmp_path / "x"),
                               "--horizon", "10", "--method", method)
        assert code == EXIT_RUNTIME
        error = stderr_error(err)
        assert error["kind"] == "runtime"
        assert "step 4 is not finite" in error["message"]

    @pytest.mark.parametrize("command, flags", [
        ("simulate", [["--horizon", "-3"], ["--n-seeds", "-2"]]),
        ("compare", [["--n-seeds", "0"], ["--horizon", "-3"]]),
        ("mc-safety", [["--n-reps", "0"], ["--n-reps", "-1"]]),
        ("simulate", [["--emit-wealth-every", "-5"]]),
        ("replay", [["--emit-wealth-every", "-1"]]),
        ("mc-safety", [["--workers", "0"], ["--workers", "-3"]]),
    ])
    def test_out_of_range_counts_exit_invalid(self, tmp_path, command, flags):
        out = tmp_path / "x"
        for flag, value in flags:
            code, stdout, err = run_cli(command, "--out", str(out), flag, value)
            assert code == EXIT_INVALID
            assert stdout == ""
            assert stderr_error(err)["kind"] == "args"
            assert stderr_error(err)["key"] == flag
        assert not out.exists()


    @pytest.mark.parametrize("command", ["mc-safety", "sweep", "compare",
                                         "ablate --preset lambda"])
    def test_zero_horizon_is_refused_where_a_verdict_is_reported(self, tmp_path, command):
        out = tmp_path / "x"
        code, stdout, err = run_cli(*command.split(), "--out", str(out), "--horizon", "0")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--horizon"
        assert not out.exists()

    @pytest.mark.parametrize("argv", ["simulate --seeds ,", "sweep --seeds ,",
                                      "sweep --epsilons ,", "compare --seeds ,",
                                      "ablate --preset lambda --seeds ,"])
    def test_empty_comma_list_exits_invalid(self, tmp_path, argv):
        """A list flag with no values would run, average or judge zero cases."""
        command, *flags = argv.split()
        out = tmp_path / "x"
        code, stdout, err = run_cli(command, "--out", str(out), "--horizon", "5", *flags)
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == flags[-2]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare", "ablate --preset lambda"])
    def test_duplicate_seeds_exit_invalid(self, tmp_path, command):
        """A repeated seed would be run and counted twice, and its second
        trajectory file would overwrite the first."""
        out = tmp_path / "x"
        code, stdout, err = run_cli(*command.split(), "--out", str(out), "--horizon", "5",
                                    "--seeds", "1,2,1")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--seeds"
        assert "distinct" in stderr_error(err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("epsilons", ["0.0800001,0.08000012", "0.05,0.05",
                                          "0.1,0.05,0.10"])
    def test_epsilons_sharing_a_folder_exit_invalid(self, tmp_path, epsilons):
        """``sweep`` names each cell's folder by its budget to 6 significant
        digits, so two budgets with one name would write one folder twice."""
        out = tmp_path / "x"
        code, stdout, err = run_cli("sweep", "--out", str(out), "--horizon", "5",
                                    "--n-seeds", "1", "--epsilons", epsilons)
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--epsilons"
        assert "epsilons to 6 significant digits must be distinct" in stderr_error(err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "simulate --seeds -1", "simulate --seeds 2,-1", "sweep --seeds -1",
        "compare --seeds -1", "ablate --preset lambda --seeds -1",
        "simulate --n-seeds 2 --base-seed -5", "compare --base-seed -5",
        "mc-safety --base-seed -5", "replay --trace absent.csv --coin-seed -1"])
    def test_negative_seed_exits_invalid_at_parse_time(self, tmp_path, argv):
        command, *flags = argv.split()
        out = tmp_path / "x"
        code, stdout, err = run_cli(command, "--out", str(out), *flags)
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == flags[-2]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "simulate", "simulate --method ips_hoeff", "replay --trace absent.csv",
        "sweep", "compare", "mc-safety --method o_naive"])
    def test_unknown_hoeff_variant_exits_invalid_at_parse_time(self, tmp_path, argv):
        command, *flags = argv.split()
        out = tmp_path / "x"
        code, stdout, err = run_cli(command, "--out", str(out), "--horizon", "5", *flags,
                                    "--hoeff-variant", "bogus")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--hoeff-variant"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    @pytest.mark.usefixtures("peeking_serial_route")
    def test_failed_serial_gate_audit_is_runtime(self, tmp_path, method):
        # explores at 0.7 with a wide budget, so every method deploys above 0
        config = write_config(tmp_path, epsilon=0.15, alpha=0.9,
                              schedule={"kind": "constant", "rho": 0.7})
        code, stdout, err = run_cli("simulate", "--out", str(tmp_path / "x"), "--config",
                                    str(config), "--horizon", "100", "--method", method)
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr_error(err)["kind"] == "runtime"
        assert "loss gate of lane 0" in stderr_error(err)["message"]
        assert not list((tmp_path / "x").iterdir())

    @pytest.mark.usefixtures("peeking_route")
    def test_failed_gate_audit_is_runtime(self):
        code, stdout, err = run_cli("mc-safety", "--horizon", "300", "--n-reps", "2")
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr_error(err)["kind"] == "runtime"
        assert "loss gate" in stderr_error(err)["message"]


class TestReplay:
    def test_replay_outputs_and_gate_accounting(self, tmp_path, ):
        rng = np.random.default_rng(12)
        events = [generate_event(uniform_linear(), rng, t) for t in range(1, 81)]
        trace = tmp_path / "trace.csv"
        write_trace(trace, events)
        out = tmp_path / "replay"
        code, stdout, _ = run_cli(
            "replay", "--out", str(out), "--trace", str(trace),
            "--coin-seed", "4")
        assert code == EXIT_OK
        assert (out / "replay_bpac.csv").exists()
        line = json.loads(stdout)
        assert line["events"] == 80
        assert line["gate_accesses"] == line["escalations"]
        summary = json.loads((out / "replay_summary.json").read_text())
        assert summary["result"]["final_deploy_risk"] is None

    def test_replay_deterministic_given_coin_seed(self, tmp_path, ):
        rng = np.random.default_rng(12)
        events = [generate_event(uniform_linear(), rng, t) for t in range(1, 41)]
        trace = tmp_path / "trace.csv"
        write_trace(trace, events)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("replay", "--out", str(out), "--trace",
                           str(trace), "--coin-seed", "9")[0] == EXIT_OK
        assert (a / "replay_bpac.csv").read_bytes() == (b / "replay_bpac.csv").read_bytes()


class TestMcSafety:
    def test_stdout_report(self, tmp_path, ):
        code, stdout, _ = run_cli(
            "mc-safety", "--horizon", "50", "--n-reps", "4")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["criterion"] == "deployment"
        assert report["n_reps"] == 4
        assert 0.0 <= report["frequency"] <= 1.0

    def test_optional_out_dir(self, tmp_path, ):
        out = tmp_path / "mc"
        code, _, _ = run_cli(
            "mc-safety", "--horizon", "40", "--n-reps", "3",
            "--out", str(out))
        assert code == EXIT_OK
        assert (out / "mc_safety_summary.json").exists()

    def test_bad_criterion(self, tmp_path, ):
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            "mc-safety", "--horizon", "40", "--n-reps", "2", "--out", str(out),
            "--criterion", "sideways")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--criterion"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["o_naive", "ips_hoeff"])
    def test_baseline_on_shifting_stream_is_runtime(self, method):
        code, _, err = run_cli(
            "mc-safety", "--method", method, "--spec", "easy_hard",
            "--horizon", "300", "--n-reps", "4")
        assert code == EXIT_RUNTIME
        error = stderr_error(err)
        assert error["kind"] == "runtime"
        assert method in error["message"]


class TestSweep:
    def test_epsilon_cells(self, tmp_path, ):
        out = tmp_path / "sweep"
        code, stdout, _ = run_cli(
            "sweep", "--out", str(out), "--horizon", "60",
            "--seeds", "0,1", "--epsilons", "0.05,0.1")
        assert code == EXIT_OK
        assert (out / "epsilon_0.05" / "trajectory_bpac_seed0.csv").exists()
        assert (out / "epsilon_0.1" / "trajectory_bpac_seed1.csv").exists()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [cell["epsilon"] for cell in summary["cells"]] == [0.05, 0.1]
        assert json.loads(stdout)["epsilons"] == [0.05, 0.1]

    def test_epsilon_too_large_for_schedule_fails_validation(self, tmp_path, ):
        code, _, err = run_cli(
            "sweep", "--out", str(tmp_path / "x"), "--horizon", "20",
            "--epsilons", "0.9")
        assert code == EXIT_INVALID
        assert stderr_error(err)["kind"] == "config"

    def test_fixed_wager_reaches_every_budget_cell(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                       "--horizon", "300", "--seeds", "4", "--epsilons", "0.05,0.1",
                       "--fixed-wager", "0.02")[0] == EXIT_OK
        config = write_config(tmp_path, epsilon=0.05)
        single = tmp_path / "single"
        assert run_cli("simulate", "--config", str(config), "--out", str(single),
                       "--horizon", "300", "--seeds", "4", "--fixed-wager", "0.02")[0] == EXIT_OK
        name = "trajectory_bpac_seed4.csv"
        assert (out / "epsilon_0.05" / name).read_bytes() == (single / name).read_bytes()

    @pytest.mark.usefixtures("no_replication")
    def test_every_budget_cell_is_checked_before_any_run(self, tmp_path):
        out = tmp_path / "x"
        code, stdout, err = run_cli("sweep", "--out", str(out), "--horizon", "50",
                                    "--n-seeds", "1", "--epsilons", "0.05,0.95")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "config"
        assert stderr_error(err)["violations"][0]["code"] == "EpsilonTooLarge"
        assert not out.exists()


class TestCompare:
    def test_three_methods_on_shared_streams(self, tmp_path, ):
        out = tmp_path / "cmp"
        code, _, _ = run_cli(
            "compare", "--out", str(out), "--horizon", "50",
            "--seeds", "2")
        assert code == EXIT_OK
        curves = (out / "compare_curves.csv").read_text().splitlines()
        assert curves[0] == "t,method,mean_ecp,mean_er,mean_u_hat"
        assert len(curves) == 1 + 3 * 50
        summary = json.loads((out / "compare_summary.json").read_text())
        assert set(summary["methods"]) == {"bpac", "o_naive", "ips_hoeff"}
        # same seed, same stream: escalation patterns may differ but the
        # trajectory files must share the stream columns
        rows_b = (out / "trajectory_bpac_seed2.csv").read_text().splitlines()[2:]
        rows_n = (out / "trajectory_o_naive_seed2.csv").read_text().splitlines()[2:]
        unc = lambda rows: [r.split(",")[1] for r in rows]
        assert unc(rows_b) == unc(rows_n)


class TestAblate:
    def test_lambda_preset(self, tmp_path, ):
        out = tmp_path / "ab"
        code, stdout, _ = run_cli(
            "ablate", "--out", str(out), "--horizon", "40",
            "--seeds", "0", "--preset", "lambda")
        assert code == EXIT_OK
        assert json.loads(stdout)["variants"] == ["adaptive", "fixed_0.05"]
        summary = json.loads((out / "ablate_summary.json").read_text())
        assert all(0.0 <= v["violation_fraction"] <= 1.0
                   for v in summary["variants"])

    @pytest.mark.usefixtures("no_replication")
    def test_infeasible_fixed_wager_is_refused_before_any_run(self, tmp_path):
        # at rho_deploy 0.04 the worst payoff, -23.92, would ruin a wager of 0.05
        config = write_config(tmp_path, schedule={"kind": "two_stage", "rho_deploy": 0.04})
        out = tmp_path / "x"
        code, stdout, err = run_cli("ablate", "--preset", "lambda", "--config", str(config),
                                    "--out", str(out), "--horizon", "2000", "--n-seeds", "3")
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr_error(err)["kind"] == "runtime"
        assert "fixed wager 0.05 must lie in [0, 0.041806)" in stderr_error(err)["message"]
        assert not out.exists()

    def test_unknown_preset(self, tmp_path, ):
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            "ablate", "--out", str(out), "--horizon", "10",
            "--preset", "everything")
        assert code == EXIT_INVALID
        assert stdout == ""
        assert stderr_error(err)["kind"] == "args"
        assert stderr_error(err)["key"] == "--preset"
        assert not out.exists()


class TestResultTables:
    def test_cells_are_numbers_and_curves_are_trajectory_means(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = tmp_path / "trace.csv"
        write_trace(trace, [generate_event(uniform_linear(), rng, t) for t in range(1, 41)])
        runs = [("simulate", "--horizon", "40", "--seeds", "1,2", "--emit-wealth-every", "20"),
                ("replay", "--trace", str(trace), "--emit-wealth-every", "20"),
                ("sweep", "--horizon", "40", "--seeds", "1", "--epsilons", "0.05,0.1"),
                ("compare", "--spec", "easy_hard", "--horizon", "40", "--seeds", "1,2,3")]
        for command, *flags in runs:
            assert run_cli(command, "--out", str(tmp_path / command), *flags)[0] == EXIT_OK

        tables = {}
        for path in tmp_path.glob("*/**/*.csv"):
            header, *rows = [line.split(",") for line in path.read_text().splitlines()
                             if not line.startswith("#")]
            for row in rows:
                assert len(row) == len(header), path
                for name, cell in zip(header, row):
                    if name != "method":
                        float(cell)
            tables[path.relative_to(tmp_path).as_posix()] = header, rows
        assert {"simulate/wealth_bpac_seed2.csv", "replay/replay_wealth_bpac.csv",
                "sweep/epsilon_0.1/trajectory_bpac_seed1.csv",
                "compare/compare_curves.csv"} <= tables.keys()

        header, rows = tables["compare/compare_curves.csv"]
        assert header == ["t", "method", "mean_ecp", "mean_er", "mean_u_hat"]
        for method in ("bpac", "o_naive", "ips_hoeff"):
            trajs = [read_trajectory(tmp_path / "compare" / f"trajectory_{method}_seed{seed}.csv")
                     for seed in (1, 2, 3)]
            curve = [row for row in rows if row[1] == method]
            assert [int(row[0]) for row in curve] == list(range(1, 41))
            for j, name in enumerate(("ecp", "er", "u_hat"), start=2):
                mean = sum((getattr(traj, name) for traj in trajs), np.zeros(40)) / 3
                assert [float(row[j]) for row in curve] == mean.tolist()


# sha256 of each run's stdout and of every file under its --out (relative
# path, then bytes, in path order), recorded before simulate, sweep, compare
# and ablate shared one executor. A refactor of the commands must keep them.
PINNED_RUNS = [
    ("simulate --horizon 60 --seeds 1,2 --emit-wealth-every 20",
     "c88451ae67812f7177655dd5f5f3f34fd336ebf0fcb3eec42575252be2b3cfd8"),
    ("simulate --method ips_hoeff --horizon 60 --seeds 1",
     "563b2cdd23b9cca65c2dc451645915756537ef61798341c654c260ca6a26a05f"),
    ("replay --trace trace.csv --coin-seed 3 --emit-wealth-every 20",
     "22b8c765199c50b632dbcd7ac82adb6034e90d589c7c155eebb23afcebe69a90"),
    ("mc-safety --horizon 60 --n-reps 3",
     "bb8483948ba5f7928338d80e743bcd729c12195d5ec6156bb4a888cf8dee594f"),
    ("sweep --horizon 60 --seeds 1,2 --epsilons 0.05,0.1",
     "d8e86df7ed80874bd128360d046f454f48723186ce7e75db5ff4b98c7f63dac6"),
    ("compare --spec easy_hard --horizon 60 --seeds 1,2",
     "c5ae62f7e6abf48e22eeb0ac689b3b4cf997d5bda228068a6cadb82794b62961"),
    ("ablate --preset lambda --horizon 60 --seeds 1,2",
     "1c2c3bec5db02905cc28bc02ae579e3556b74953f74760c0a4637e0e604eca8f"),
    ("ablate --preset rho --horizon 60 --seeds 1",
     "886e23def8d777f368c775d19b170fa2ec258ae45d6050fb01b52c2a56c354ce"),
]


def load_digest_matrix():
    spec = importlib.util.spec_from_file_location("digest_matrix", DIGEST_MATRIX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, digest", PINNED_RUNS, ids=[argv for argv, _ in PINNED_RUNS])
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, argv, digest):
    # relative paths: stdout and replay_summary.json embed them
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    write_trace("trace.csv", [generate_event(uniform_linear(), rng, t) for t in range(1, 61)])
    code, stdout, err = run_cli(*argv.split(), "--out", "out")
    assert (code, err) == (EXIT_OK, "")
    assert load_digest_matrix().output_digest(stdout, Path("out")) == digest


def test_the_digest_matrix_runs_the_pinned_runs():
    assert load_digest_matrix().CLI_RUNS == [argv for argv, _ in PINNED_RUNS]
