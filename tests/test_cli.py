"""The ``repro`` entry point: the verb table, the root help, startup
imports, and the deprecated console-script aliases."""

import os
import re
import subprocess
import sys

import pytest

from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (old console script, the verb it stands for, a representative argv)
ALIASES = [
    ("hpcnet", (), ["run", "micro.arith", "--jobs", "2"]),
    ("repro-fuzz", ("fuzz",), ["run", "--seed", "7", "--no-compile-cache"]),
    ("repro-prof", ("prof",), ["report", "micro.loop", "--runtime", "clr11"]),
    ("repro-bench", ("bench",), ["run", "--benchmarks", "micro.arith",
                                 "--scale", "0.5", "--fault-seed", "1"]),
    ("repro-chaos", ("chaos",), ["run", "--seed", "3", "--pin", "0:worker_crash"]),
    ("repro-serve", ("serve",), ["--port", "0", "--workers", "2"]),
    ("repro-client", ("client",), ["--trace", "stats"]),
    ("repro-store", ("store",), ["--db", "x.sqlite", "runs"]),
    ("repro-trace", ("trace",), ["ls", "log.jsonl"]),
]


@pytest.mark.parametrize("name, verb, argv", ALIASES, ids=[a[0] for a in ALIASES])
def test_alias_is_repro_verb_plus_one_notice(name, verb, argv, monkeypatch, capsys):
    parsed = []
    real_parse_args = cli.parse_args

    def recording(argv):
        args = real_parse_args(argv)
        parsed.append(dict(vars(args)))
        args.func = lambda _args: 3  # parse only; run no handler
        return args

    monkeypatch.setattr(cli, "parse_args", recording)
    assert cli.main([*verb, *argv]) == 3
    direct = capsys.readouterr()
    assert getattr(cli, name.replace("-", "_"))(argv=argv) == 3
    aliased = capsys.readouterr()

    assert parsed[0] == parsed[1]
    assert aliased.out == direct.out == ""
    assert direct.err == ""
    assert aliased.err.count("\n") == 1
    assert aliased.err.startswith(f"{name}: deprecated, use `repro")


def test_console_scripts_are_repro_and_the_aliases():
    with open(os.path.join(ROOT, "pyproject.toml")) as handle:
        block = handle.read().split("[project.scripts]")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"', block, re.M))
    assert scripts == {
        "repro": "repro.cli:main",
        **{name: f"repro.cli:{name.replace('-', '_')}" for name, _, _ in ALIASES},
    }


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
