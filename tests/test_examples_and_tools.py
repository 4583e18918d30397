"""Smoke tests: every example script runs to completion and prints what its
docstring promises."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    for name in ("ibm-1.3.1", "clr-1.1", "mono-0.23", "sscli-1.0"):
        assert name in out
    # same result on every line
    values = [line.split()[1] for line in out.splitlines()
              if line.startswith(("ibm", "clr", "mono", "sscli"))]
    assert len(set(values)) == 1


def test_jit_code_comparison():
    out = run_example("jit_code_comparison.py", "clr-1.1", "sscli-1.0")
    assert "ldc.i4" in out            # Table 5 CIL
    assert "idiv" in out              # the division
    assert "sar     edx, 0x1f" in out  # Rotor's emulated cdq


def test_matrix_styles():
    out = run_example("matrix_styles.py")
    assert "multidim/jagged ratio" in out
    assert "Matrix:Jagged" in out


def test_grande_suite_fast():
    out = run_example("grande_suite.py", "--fast")
    assert "validated" in out
    assert "Grande:RayTracer" in out


def test_scimark_shootout_fast():
    out = run_example("scimark_shootout.py", "--fast", timeout=480)
    assert "small memory model" in out
    assert "composite" in out


def test_examples_exist_and_documented():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        head = script.read_text().split('"""')[1]
        assert len(head) > 40, f"{script.name} lacks a docstring"


def test_dispatch_mix_counts_every_retired_instruction():
    import importlib.util

    from repro.harness.runner import Runner
    from repro.runtimes import CLR11

    spec = importlib.util.spec_from_file_location(
        "dispatch_mix", REPO / "tools" / "dispatch_mix.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    mix = tool.Mix()
    restore = mix.install()
    try:
        run = Runner().run_on("scimark.lu", CLR11, {"N": 48})
    finally:
        restore()
    dispatches, instructions = mix.totals()
    assert instructions == run.instructions
    assert mix.totals("fused")[0] > 0 and dispatches < instructions
    # the CI fusion gate's floor, through the command line
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "dispatch_mix.py"), "scimark.lu",
         "--profile", "clr-1.1", "--param", "N=48", "--min-ipd", "2.7"],
        capture_output=True, text=True, timeout=240, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert f"{instructions:,}" in proc.stdout
