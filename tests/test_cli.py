"""The ``repro`` entry point: the verb table, the root help, startup
imports, and the one console script."""

import os
import re
import subprocess
import sys

import pytest

from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_console_scripts_are_repro_and_the_aliases():
    # the deprecated aliases are gone: ``repro`` is the one script
    with open(os.path.join(ROOT, "pyproject.toml")) as handle:
        block = handle.read().split("[project.scripts]")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"', block, re.M))
    assert scripts == {"repro": "repro.cli:main"}


def test_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in cli.VERBS:
        assert re.search(rf"^\s+{verb}\b", out, re.M), verb


def test_each_package_registers_exactly_its_verbs():
    for verb, package in cli.VERBS.items():
        sub = cli.build_parser(verb)._subparsers._group_actions[0]
        assert set(sub.choices) == {
            v for v, p in cli.VERBS.items() if p == package
        }, verb


def test_client_parser_loads_neither_daemon_nor_jit():
    code = (
        "import sys; from repro.cli import build_parser; "
        "build_parser('client').parse_args(['client', 'stats']); "
        "print(sorted(m for m in sys.modules if m.startswith(("
        "'repro.service.daemon', 'repro.jit', 'repro.vm', 'repro.harness'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_closed_stdout_pipe_exits_quietly():
    """``repro list | head -1``: the reader goes away before the listing is
    written; the command exits non-zero with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "repro", "list"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child has written anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert err == b""
