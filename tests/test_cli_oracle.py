"""The command line's one-pass grammar against argparse as an oracle.

Where argparse accepts a command line the pass must return the same
namespace; where argparse prints a help or a usage error the pass must exit
with the same code and print the same text, up to line wrapping and the list
of choices after an invalid subcommand, whose quoting varies across Python
versions.  ``--`` is left out: its handling by argparse also varies across
versions.
"""

import contextlib
import io
import random
import re

import pytest

import argparse_oracle
from facebalance import cli
from test_cli import _sample_arguments as _sample


def _run(build, argv):
    """("ok", namespace) or (exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build().parse_args(list(argv))
    except SystemExit as e:
        return e.code, _words(out.getvalue()), _words(err.getvalue())
    assert out.getvalue() == err.getvalue() == ""
    return "ok", vars(args)


def _words(text):
    return " ".join(re.sub(r" \(choose from [^)]*\)", "", text).split())


def _command_corpus(name, arguments):
    rest = _sample(arguments)
    options = [a for a in arguments if a.startswith("--")]
    ints = [a for a, kw in arguments.items() if kw.get("type") is int]
    argvs = [
        [name] + rest,
        ["--json", "--seed", "5", name] + rest,
        [name] + rest + ["--json", "--seed", "-9"],
        ["--seed", "5", name] + rest + ["--seed", "9"],
        ["--seed=5", "--seed", "6", name, "--seed=-2"] + rest,
        ["--json", name, "--json"] + rest,
        [name] + rest + ["extra"],
        ["--bogus", name] + rest,
        [name, "--bogus"] + rest,
        [name] + rest + ["-x", "y"],
        [name] + rest + ["--seed"],
        ["--seed", "x", name] + rest,
        [name] + rest + ["--seed=1.5"],
        [name] + rest + ["--json=1"],
        [name] + rest + ["--js"],
        ["--se", "3", name] + rest,
        [name] + rest + ["--help"],
        ["-h", name] + rest,
        [name, "-h", "extra"],
        [name] + rest + ["-1.5"],
    ]
    argvs += [[name] + _sample(arguments, "-2")]
    if ints:
        argvs += [[name] + _sample(arguments, "x"), [name] + _sample(arguments, "")]
    for option in options:
        at = rest.index(option)
        argvs += [[name] + rest[:at] + [f"{option}={rest[at + 1]}"] + rest[at + 2:],
                  [name] + rest[:at] + rest[at + 2:],
                  [name] + rest[:at + 1],
                  [name] + rest[:at] + [option[:-2], rest[at + 1]] + rest[at + 2:],
                  [name] + rest[:at] + [option, "--json"] + rest[at + 1:]]
    for at in range(len(rest)):
        argvs.append([name] + rest[:at] + rest[at + 1:])
    return argvs


def _corpus():
    argvs = [[], ["-h"], ["--help"], ["--json"], ["--seed", "3"], ["bogus"],
             ["--json", "bogus", "x"], ["--gra", "g", "classify"], ["-", "cm"],
             ["hvector", "1", "-2", "3"], ["hvector", "1", "--json", "2"],
             ["turan", "-2", "-3"], ["turan", "3", "--json", "4"],
             ["cm", "a b", "-c d"], ["cm", ""], ["cm", "-"]]
    for name, (_, _, arguments) in cli.COMMANDS.items():
        argvs += _command_corpus(name, arguments)
    pool = list(cli.COMMANDS) + [
        "--json", "--seed", "5", "-3", "x", "--graph", "--graph=g", "--gra",
        "--bogus", "-h", "--help", "1", "--complex", "--cover", "--name",
        "--seed=2", "-", "", "a b", "-1.5", "-x", "--json=1", "--se", "7",
        "-.5", "--seed=", "--help=1", "--cover=", "--name=P10"]
    rng = random.Random(89)
    argvs += [[rng.choice(pool) for _ in range(rng.randint(1, 7))]
              for _ in range(1500)]
    return argvs


def test_the_pass_agrees_with_argparse():
    kinds = {"ok": 0, 0: 0, 2: 0}
    for argv in _corpus():
        expected = _run(argparse_oracle.build_parser, argv)
        assert _run(cli.build_parser, argv) == expected, argv
        kinds[expected[0]] += 1
        if expected[0] == 2:
            assert expected[1] == "" and expected[2].startswith("usage: ")
    assert min(kinds.values()) > 100, kinds


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_is_accepted(name):
    arguments = cli.COMMANDS[name][2]
    for argv in ([name] + _sample(arguments),
                 ["--json", name, "--seed=4"] + _sample(arguments, "-2")):
        expected = _run(argparse_oracle.build_parser, argv)
        assert expected[0] == "ok"
        assert _run(cli.build_parser, argv) == expected
