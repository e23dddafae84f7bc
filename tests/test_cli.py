import json
import os
import subprocess
import sys

import pytest

from tcores.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_figure_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "18,7,6", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == "3,1"
    assert payload["quotients"] == ["2", "-", "5,2"]
    assert payload["size_identity"] is True


def test_decompose_offsets_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "5,3,1,1", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == "5,3,1,1"
    assert payload["b"] == [0, 7, -4]
    assert payload["d"] == [0, 2, -2]


def test_decompose_empty(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-", "--t", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == "-"
    assert payload["quotients"] == ["-"] * 5


def test_decompose_parse_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "2,3", "--t", "2")
    assert code == 2
    assert "error" in err


def test_average_tsv(capsys):
    code, out, _ = run_cli(
        capsys,
        "average", "--core", "-", "--t", "2", "--n", "0..3", "--stat", "hook:j=0,pow=2,G",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tG*hook:t=2,j=0,pow=2"
    assert [line.split("\t")[1] for line in lines[1:]] == ["0", "4", "14", "30"]


def test_average_multiple_columns_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "average", "--core", "-", "--t", "2", "--n", "1", "--format", "json",
        "--stat", "hook:j=0,pow=2,G", "--stat", "content:j=1,pow=2,G",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"n": 1, "values": ["4", "1"]}]


def test_average_weight_flag_applies_to_all(capsys):
    code, out, _ = run_cli(
        capsys,
        "average", "--core", "-", "--t", "2", "--n", "1..1", "--weight-g",
        "--stat", "hook:j=0,pow=2",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "1\t4"


def test_average_rejects_non_core(capsys):
    code, _, err = run_cli(
        capsys,
        "average", "--core", "2", "--t", "2", "--n", "0..1", "--stat", "hook:j=0,pow=2",
    )
    assert code == 2
    assert "not a 2-core" in err and "hook 2" in err


def test_average_exact_rationals_in_cells(capsys):
    # unweighted average of G alone over a layer is a proper fraction
    code, out, _ = run_cli(
        capsys,
        "average", "--core", "-", "--t", "2", "--n", "2", "--stat", "hook:j=1,pow=0,G",
    )
    assert code == 0
    cell = out.strip().splitlines()[1].split("\t")[1]
    assert "/" in cell or cell.isdigit()


def test_average_deterministic_bytes(capsys):
    args = ("average", "--core", "-", "--t", "3", "--n", "0..2",
            "--stat", "hook:j=1,pow=2,paired,G", "--stat", "content:j=0,pow=2,G")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_success_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "bijection", "--max-size", "8", "--t", "1..3")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "bijection"
    assert payload["failures"] == 0
    assert payload["checks"] > 0
    assert payload["first_failure"] is None


def test_verify_unknown_suite_exits_2(capsys):
    code = main(["verify", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    from tcores import cli as climod
    from tcores.suites import SuiteReport

    def failing(**kwargs):
        return SuiteReport(
            "bijection", {}, checks=1, failures=1,
            first_failure={"check": "stub", "inputs": {}, "lhs": "0", "rhs": "1"},
        )

    monkeypatch.setitem(climod.SUITES, "bijection", failing)
    code, out, _ = run_cli(capsys, "verify", "bijection")
    assert code == 1
    assert json.loads(out)["failures"] == 1


def test_verify_operators_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "operators", "--t", "1,2", "--n", "0..2")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_usage_error_exits_2(capsys):
    code = main(["average", "--t", "2"])  # missing required --stat
    capsys.readouterr()
    assert code == 2


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "tcores", "decompose", "18,7,6", "--t", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["core"] == "3,1"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bijection", "--t", "5..1"],
        ["verify", "averages", "--n", "0..-1"],
        ["average", "--t", "2", "--n", "3..1", "--stat", "hook:j=0,pow=2"],
    ],
)
def test_empty_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "empty range" in err


def test_repeated_stat_key_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "average", "--t", "2", "--n", "0..1", "--stat", "hook:j=0,pow=2,pow=4",
    )
    assert code == 2
    assert out == ""
    assert "repeated statistic key 'pow'" in err


def test_repeated_weight_token_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "average", "--t", "2", "--n", "1", "--stat", "hook:j=0,pow=2,G,G",
    )
    assert code == 2
    assert out == ""
    assert "repeated statistic key 'G'" in err


def test_verify_json_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "fundamental", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "fundamental", "--format", "json")
    assert first == second
    assert "wall_time" not in first


@pytest.mark.parametrize(
    "argv",
    [
        ["average", "--t", "2", "--n", "0..2", "--stat", "hook:j=0,pow=2", "--workers", "2"],
        ["verify", "averages", "--workers", "2"],
    ],
)
def test_workers_flag_is_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--workers" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "polynomiality", "--n", "0..4"], "--n"),
        (["verify", "fundamental", "--t", "2"], "--t"),
        (["verify", "operators", "--max-size", "4"], "--max-size"),
        (["verify", "averages", "--samples", "3"], "--samples"),
        (["verify", "bijection", "--seed", "1"], "--seed"),
    ],
)
def test_verify_flag_the_suite_does_not_take_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"takes no {flag}" in err


@pytest.mark.parametrize("layers", ["2..4", "1..1", "3"])
def test_verify_layer_range_must_start_at_0(capsys, layers):
    code, out, err = run_cli(capsys, "verify", "averages", "--n", layers)
    assert code == 2
    assert out == ""
    assert "must start at 0" in err


def test_verify_flags_reach_the_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "averages", "--t", "2", "--n", "0..1")
    assert code == 0
    assert json.loads(out)["grid"] == {"t": [2], "n_max": 1}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "bijection", "--t", "2,2,2"], "repeated modulus"),
        (["verify", "per-partition", "--samples", "-3"], "non-negative"),
        (["verify", "bijection", "--max-size", "-1"], "non-negative"),
    ],
)
def test_repeated_or_negative_verify_flag_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("moduli", ["0", "-1", "0..2", "2,0"])
def test_modulus_below_one_is_usage_error(capsys, moduli):
    code, out, err = run_cli(capsys, "verify", "per-partition", "--t", moduli)
    assert code == 2
    assert out == ""
    assert "modulus must be positive" in err


def test_verify_per_partition_sweeps_only_the_given_moduli(capsys):
    # t = 5 at size 0 with no samples: the empty partition's five residues
    # k and its hook2-content2 check; the general-core grid has no t = 5 core
    code, out, _ = run_cli(capsys, "verify", "per-partition", "--t", "5", "--max-size", "0", "--samples", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"]["t"] == [5]
    assert payload["checks"] == 6


def test_verify_polynomiality_rejects_t_1(capsys):
    code, out, err = run_cli(capsys, "verify", "polynomiality", "--t", "1")
    assert code == 2
    assert out == ""
    assert "needs every t >= 2" in err
    assert "t = 1 is its classical family" in err
