"""Command-line front end.

Verbs: eval, dual, verify, fuzz, suite, quad.  Structured output is always
the same JSON record the library produces; the human-readable view is just
a formatting of it.  Exit codes: 0 all checks pass, 1 any check failed,
2 usage or config error.

`eval` and `dual` run on the engine alone.  The checker layers
(`identities`, `quadrature`, `report`) are imported inside the verbs that
use them, and an argument naming a registry entry reads its registry only
when argparse checks a value or formats help.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterator, Sequence

from .errors import MzvError, PreconditionError, check_accuracy, check_int, parse_json, read_json, shown
from .indices import MzvIndex, dual
from .series import NestedSumSpec, evaluate, mzv

__all__ = ["main"]


def _int_vec(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]  # int() takes the whitespace around a digit string
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {shown(text)}")


def _int_or_real(text: str) -> int | float:
    """An integral number as an int (an integer literal keeps every digit),
    any other as a float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {shown(text)}") from None
    return int(value) if value.is_integer() else value


# every parameter flag and its type; `verify` and `quad` accept the ones
# their checker's signature names, and run them as a one-point `points`
# entry; `m` is an integer in most families, a real in `threeway`
_PARAM_FLAGS = {
    "p": int, "q": int, "r": int, "m": _int_or_real, "n": int, "ell": int, "a": float,
    "index": str, "pvec": _int_vec, "qvec": _int_vec,
}


class _Choices:
    """The sorted keys of a registry of the package, `IDENTITIES` or
    `QUAD_CHECKS`, read through the package's name for it on each use, so
    that building the parser imports no checker layer.  An argument taking
    these choices sets its own `metavar`, because argparse formats the
    choices into one while adding an argument that has none."""

    def __init__(self, registry: str) -> None:
        self._registry = registry

    def _keys(self) -> dict:
        return getattr(sys.modules[__package__], self._registry)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._keys()))

    def __contains__(self, name: object) -> bool:
        return name in self._keys()


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name, kind in _PARAM_FLAGS.items():
        parser.add_argument(f"--{name}", type=kind)


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--acc", type=float, default=None, help="per-side accuracy target")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--json", action="store_true", help="print the JSON report")
    parser.add_argument("--out", help="also write the JSON report to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzv",
        description="Evaluate nested zeta sums and verify their duality identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an index or a nested-sum spec file")
    p_eval.add_argument("index", nargs="?", help='index like "(1,2)" or "{1}^2,3"')
    p_eval.add_argument("--spec", help="JSON file holding a nested-sum spec")
    p_eval.add_argument("--acc", type=float, default=1e-10)
    p_eval.add_argument("--json", action="store_true")

    p_dual = sub.add_parser("dual", help="print the dual of an admissible index")
    p_dual.add_argument("index")

    p_verify = sub.add_parser("verify", help="check one identity instance")
    p_verify.add_argument("identity", choices=_Choices("IDENTITIES"), metavar="identity", help="one of %(choices)s")
    _add_param_flags(p_verify)
    _add_report_flags(p_verify)

    p_fuzz = sub.add_parser("fuzz", help="seeded random identity instances")
    p_fuzz.add_argument(
        "--identity", required=True, choices=_Choices("IDENTITIES"), metavar="IDENTITY", help="one of %(choices)s"
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=10)
    p_fuzz.add_argument("--ranges", help="JSON object of parameter ranges")
    _add_report_flags(p_fuzz)

    p_suite = sub.add_parser("suite", help="run a config-driven verification suite")
    p_suite.add_argument("--config", help="suite config JSON (default: packaged grid)")
    _add_report_flags(p_suite)

    p_quad = sub.add_parser("quad", help="quadrature cross-checks of the integral forms")
    p_quad.add_argument("form", choices=_Choices("QUAD_CHECKS"), metavar="form", help="one of %(choices)s")
    _add_param_flags(p_quad)
    _add_report_flags(p_quad)

    return parser


def _emit(report: dict, args: argparse.Namespace) -> int:
    from .report import render_table

    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an infinite or NaN number has no strict-JSON form
        raise MzvError(f"report is not strict JSON: {exc}") from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text if args.json else render_table(report))
    return 0 if report["summary"]["failed"] == 0 else 1


def _run_one(args: argparse.Namespace, accuracy: float, entry: dict) -> int:
    """Run `entry` alone as a suite at `--acc` (else `accuracy`) and `--tolerance`; emit the report."""
    from .report import run_suite

    acc = args.acc if args.acc is not None else accuracy
    return _emit(run_suite({"accuracy": acc, "tolerance": args.tolerance, "checks": [entry]}), args)


def _check_targets(args: argparse.Namespace) -> None:
    """Refuse an `--acc` or `--tolerance` outside (0, 1], the range a suite
    config takes, before anything runs."""
    for flag in ("acc", "tolerance"):
        value = getattr(args, flag, None)
        if value is not None:
            check_accuracy(value, f"--{flag}", MzvError)


def _flag_point(args: argparse.Namespace, check: Callable, what: str, none_runs: str = "") -> dict:
    """The parameter flags given, as a point of `check` in its signature
    order; a flag it does not take is an error, and so is a missing required
    one, unless no flag is given and `none_runs` names what runs then."""
    from .identities import check_params

    names, required = check_params(check)
    for name in _PARAM_FLAGS:
        if getattr(args, name) is not None and name not in names:
            raise MzvError(f"flag --{name} does not apply to {what}")
    point = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    for name in required:
        if name not in point and (point or not none_runs):
            raise MzvError(f"missing required flag --{name}" + (none_runs and f" (or none, for {none_runs})"))
    return point


def _cmd_eval(args: argparse.Namespace) -> int:
    if (args.index is None) == (args.spec is None):
        raise MzvError("need exactly one of an index argument or --spec FILE")
    if args.spec is not None:
        spec = NestedSumSpec.from_dict(read_json(args.spec, MzvError, f"spec {args.spec!r}"))
        result = evaluate(spec, args.acc)
        label = args.spec
    else:
        index = MzvIndex.parse(args.index)
        result = mzv(index, args.acc)
        label = str(index)
    if args.json:
        print(json.dumps({"input": label, **result.as_dict()}, indent=2, sort_keys=True))
    else:
        print(f"{label} = {result.value!r}")
        print(
            f"  tail_bound={result.tail_bound:.3e} cutoff={result.cutoff} "
            f"mode={result.mode} accuracy_met={result.accuracy_met}"
            + (f" flags={','.join(result.flags)}" if result.flags else "")
        )
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    print(dual(MzvIndex.parse(args.index)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import DEFAULT_ACCURACY, IDENTITIES

    point = _flag_point(args, IDENTITIES[args.identity][0], f"identity {args.identity!r}")
    return _run_one(args, DEFAULT_ACCURACY, {"identity": args.identity, "points": [point]})


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .identities import DEFAULT_ACCURACY, IDENTITIES, MAX_TERMS, check_ranges

    check_int(args.count, "--count", 0, MAX_TERMS, error=MzvError)
    ranges = parse_json(args.ranges, MzvError, "--ranges") if args.ranges else {}
    try:
        check_ranges(IDENTITIES[args.identity][2], ranges)
    except PreconditionError as exc:
        raise MzvError(f"--ranges: {exc}") from None
    fuzz = {"seed": args.seed, "count": args.count, "ranges": ranges}
    return _run_one(args, DEFAULT_ACCURACY, {"identity": args.identity, "fuzz": fuzz})


def _cmd_suite(args: argparse.Namespace) -> int:
    from .report import load_config, run_suite

    config = load_config(args.config)
    if args.acc is not None:
        config["accuracy"] = args.acc
    if args.tolerance is not None:
        config["tolerance"] = args.tolerance
    return _emit(run_suite(config), args)


def _cmd_quad(args: argparse.Namespace) -> int:
    from .quadrature import QUAD_ACCURACY, QUAD_CHECKS

    # every flag of the form makes one point, none its default grid
    point = _flag_point(args, QUAD_CHECKS[args.form][0], f"quad form {args.form!r}", "the default grid")
    return _run_one(args, QUAD_ACCURACY, {"quad": args.form, "points": [point]} if point else {"quad": args.form})


_COMMANDS = {
    "eval": _cmd_eval,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "suite": _cmd_suite,
    "quad": _cmd_quad,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_targets(args)
        return _COMMANDS[args.command](args)
    except (MzvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
