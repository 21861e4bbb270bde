"""The command-line grammar as argparse parsed it, kept as a test oracle.

``build_parser`` is the parser ``facebalance.cli`` built before its grammar
became one table-driven pass over argv, with abbreviations switched off: the
pass accepts no abbreviated option.  It reads the same ``COMMANDS`` table.
"""

import argparse

from facebalance.cli import COMMANDS
from facebalance.polynomials import DEFAULT_SEED


def _with_shared_flags(parser):
    parser.add_argument("--json", action="store_true",
                        help="emit one canonical JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="specialization seed")
    return parser


class _Subcommand(argparse.Action):
    """Build the parser of the named subcommand and parse the rest of the
    command line with it into the same namespace."""

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        func, description, arguments = COMMANDS[name]
        sub = _with_shared_flags(argparse.ArgumentParser(
            prog=f"{parser.prog} {name}", description=description,
            allow_abbrev=False))
        for argument, keywords in arguments.items():
            sub.add_argument(argument, **keywords)
        namespace.subcommand, namespace.func = name, func
        # a parser sets a default only where the namespace has no value, so
        # a shared flag given before the subcommand stands unless given again
        sub.parse_args(rest, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _with_shared_flags(argparse.ArgumentParser(
        prog="facebalance", formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        description="Face-number invariants, Cohen-Macaulay tests, and "
                    "verified\nd-colorable witnesses.",
        epilog="subcommands:\n" + "\n".join(
            f"  {name:<13}{line}" for name, (_, line, _) in COMMANDS.items())))
    parser.add_argument("subcommand", nargs=argparse.PARSER, choices=COMMANDS,
                        action=_Subcommand, metavar="subcommand",
                        help="one of the subcommands below, then its arguments")
    return parser
