import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import holeshift
from holeshift import (
    MultiSchedule,
    build_pq_schedule,
    from_words,
    gen_family,
    gen_lpq,
    gen_mixed,
    gen_progressive,
    gen_totally_distinct,
    make_params,
)
from holeshift.cli import format_schedule, main, parse_schedule

SCHEMA = json.loads(
    (Path(holeshift.__file__).parent / "output_schema.json").read_text()
)
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)

P32 = make_params(3, 2)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


JSON_INVOCATIONS = [
    ("roots", "-b", "3", "-m", "2", "--kind", "all", "--json"),
    ("count", "-b", "3", "-m", "2", "--schedule", "po:seed=012", "-k", "7", "--json"),
    ("count", "-b", "3", "-m", "2", "--schedule", "td:seed=0", "-k", "40",
     "--series", "--log", "--json"),
    ("classify", "-b", "3", "-m", "2", "--schedule", "lpq:p=1,q=1,seed=0",
     "-k", "1", "--to", "6", "--json"),
    ("dim", "-b", "3", "-m", "2", "--schedule", "po:seed=0", "--k-max", "200",
     "--predict"),
    ("regularity", "-b", "3", "-m", "2", "--schedule", "po:seed=0",
     "--k-max", "50", "--json"),
    ("jsr", "-b", "3", "-m", "2", "-n", "3", "--json"),
    ("build-pq", "-m", "2", "--s", "1/4", "--t", "1/2", "--cycles", "4", "--json"),
]


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: a[0])
def test_json_outputs_validate(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    assert doc["schema_version"] == "1"
    assert doc["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [JSON_INVOCATIONS[0], JSON_INVOCATIONS[1], JSON_INVOCATIONS[4]],
    ids=lambda a: a[0],
)
def test_outputs_are_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_count_bare_value(capsys):
    code, out, _ = run(
        capsys, "count", "-b", "3", "-m", "2", "--schedule", "po:seed=012", "-k", "7"
    )
    assert code == 0
    assert out == "1224\n"


def test_count_series_csv(capsys):
    code, out, _ = run(
        capsys, "count", "-b", "3", "-m", "2", "--schedule", "po:seed=012",
        "-k", "4", "--series", "--csv",
    )
    assert code == 0
    assert out == "k,count\n0,1\n1,3\n2,8\n3,22\n4,60\n"


def test_count_json_envelope(capsys):
    _, out, _ = run(
        capsys, "count", "-b", "3", "-m", "2", "--schedule", "po:seed=012",
        "-k", "7", "--json",
    )
    doc = json.loads(out)
    assert doc["params"] == {"b": 3, "m": 2, "verified": True}
    assert doc["schedule"] == "po:seed=012"
    assert doc["result"]["count"] == "1224"  # decimal string, never a float


def test_classify_human(capsys):
    code, out, _ = run(
        capsys, "classify", "-b", "3", "-m", "2",
        "--schedule", "lpq:p=1,q=1,seed=0", "-k", "1", "--to", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(("po" in ln) or ("td" in ln) for ln in lines)


def test_dim_emits_prediction(capsys):
    _, out, _ = run(
        capsys, "dim", "-b", "3", "-m", "2", "--schedule", "po:seed=0",
        "--k-max", "200", "--predict",
    )
    doc = json.loads(out)
    res = doc["result"]
    assert abs(res["liminf"] - 0.9148) < 2e-3
    assert abs(res["prediction"]["hausdorff"] - 0.914838245584205) < 1e-12


def test_roots_human_line(capsys):
    code, out, _ = run(capsys, "roots", "-b", "3", "-m", "2", "--kind", "lambda")
    assert code == 0
    assert out.startswith("lambda(b=3, m=2) = 2.732050807569")
    assert "pisot=yes" in out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_argument_exits_one(capsys):
    code, _, err = run(capsys, "count", "-b", "3", "-m", "2")
    assert code == 1
    assert "error" in err


def test_unknown_command_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_csv_unsupported_exits_one(capsys):
    code, _, err = run(capsys, "roots", "-b", "3", "-m", "2", "--kind", "lambda", "--csv")
    assert code == 1
    assert "drop --csv" in err


def test_computation_error_exits_two(capsys):
    code, _, err = run(
        capsys, "classify", "-b", "3", "-m", "2",
        "--schedule", "multi:(po:seed=0);(periodic:11)", "-k", "3",
    )
    assert code == 2
    assert "single hole" in err


def test_dim_k_max_zero_exits_two(capsys):
    code, out, err = run(capsys, "dim", "-b", "3", "-m", "2", "--schedule", "po:seed=012", "--k-max", "0")
    assert (code, out) == (2, "")
    assert "k_max must be an int >= 2" in err


@pytest.mark.parametrize("flag", ["--series", "--log"])
def test_prefix_with_series_or_log_exits_one(capsys, flag):
    code, out, err = run(
        capsys, "count", "-b", "3", "-m", "2", "--schedule", "po:seed=012",
        "-k", "6", "--prefix", "10", flag,
    )
    assert code == 1
    assert out == ""
    assert "--prefix" in err


def test_threads_is_unknown_option(capsys):
    code, _, err = run(capsys, "jsr", "-b", "3", "-m", "2", "-n", "3", "--threads", "2")
    assert code == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("targets", [("1/0", "1/2"), ("1/4", "1/0"), ("abc", "1/2")])
def test_build_pq_bad_targets_exit_two(capsys, targets):
    s, t = targets
    code, out, err = run(capsys, "build-pq", "-m", "2", "--s", s, "--t", t)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_jsr_csv_with_check_periodic_exits_one(capsys):
    code, out, err = run(
        capsys, "jsr", "-b", "3", "-m", "2", "-n", "3", "--csv", "--check-periodic", "01"
    )
    assert (code, out) == (1, "")
    assert "--check-periodic" in err


def test_dim_predict_reuses_the_report(capsys, monkeypatch):
    import holeshift.cli as cli

    argv = ("dim", "-b", "3", "-m", "2", "--schedule", "po:seed=0", "--k-max", "200", "--predict")
    _, expected, _ = run(capsys, *argv)
    calls = []
    monkeypatch.setattr(cli, "predict_dims", lambda s: calls.append(s))
    code, out, _ = run(capsys, *argv)
    assert (code, out, calls) == (0, expected, [])


def test_bad_schedule_descriptor_exits_two(capsys):
    code, _, err = run(
        capsys, "count", "-b", "3", "-m", "2", "--schedule", "nonsense:x=1", "-k", "3"
    )
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# descriptor round-trips


ROUND_TRIP = [
    gen_progressive(P32, (0, 1, 2)),
    gen_progressive(P32, ("rng", 42)),
    gen_totally_distinct(P32, (0, 2, 1)),
    gen_lpq(P32, 2, 1, (0,)),
    gen_family(P32, build_pq_schedule(2, Fraction(1, 4), Fraction(1, 2)), (0,)),
    gen_family(P32, build_pq_schedule(2, Fraction(1, 2), Fraction(1, 2)), (1,)),
    gen_mixed(make_params(3, 3), (0, 1)),
    from_words(P32, [(0, 1), (1, 2), (2, 0)]),
    MultiSchedule(P32, (gen_progressive(P32, (0,)), from_words(P32, [(1, 1)]))),
]


@pytest.mark.parametrize("s", ROUND_TRIP, ids=lambda s: s.kind)
def test_descriptor_round_trip(s):
    text = format_schedule(s)
    again = parse_schedule(text, s.params)
    assert again == s
    assert format_schedule(again) == text


def test_parse_rejects_bad_digits():
    with pytest.raises(ValueError):
        parse_schedule("periodic:09", P32)


# ---------------------------------------------------------------------------
# console script


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "holeshift", "count", "-b", "3", "-m", "2",
         "--schedule", "po:seed=012", "-k", "7"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1224"
