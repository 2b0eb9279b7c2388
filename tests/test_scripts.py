"""Smoke tests: each script in scripts/ runs at a tiny size and prints its
header."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name,args,header",
    [
        ("jsr_table.py", ["-n", "3"], "b=3 m=2  lambda="),
        ("dimension_sweep.py", ["--k-max", "200"], "b=3 m=2 k_max=200"),
        ("family_checkpoints.py", ["--k-max", "2000"], "b=3 m=2 s=1/4 t=1/2"),
    ],
)
def test_script_runs(capsys, monkeypatch, name, args, header):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith(header)
