"""Batch command-line surface.

Reads problem instances as JSON, runs the combinatorial deciders and the
brute-force tensor oracle, and emits JSON verdicts, witnesses, tensors
and character tables.  `symmetrize` projects through `tensor.project`,
which drops the weights its shape does not dominate (Young's rule) before
it applies the isotypic projector, and builds none when no weight is
left.  Rationals travel as strings ("p/q" or "p"), never as floats, and
every payload is ordered deterministically so reruns are byte-identical.
Every command writes exactly the bytes of
`json.dumps(payload, indent=2)`.  `characters`, `selfcheck` and
`symmetrize --shape-only`, whose payloads are small, call `json.dumps`.
Each other payload is one `%` template, about one Python step per
record: `gamas` joins in its witnesses' columns, `symmetrize` writes one
more template per tensor entry, and `equal` one per witness or failure,
with each column's text and each rational value's written once per
call.  The tests hold these bytes to `json.dumps` of the reference
payloads, `tensor.to_json_obj` and `verdict_json`.  `selfcheck` runs the
properties of `symten.crosscheck`.  Each command checks its degree
against `--max-n` once (`check_limit`), after its arguments and input
parse and before any work; `symmetrize` then checks the class table's
degree bound before it builds the tensor.

Importing this module loads only what every command shares: `argparse`,
`json`, `linalg` and `combinatorics`.  Each `cmd_` function imports the
layers it runs when called, on every call, so a launch compiles no module
its command does not run: `decision` for `gamas` and `equal`, `tensor`
(and through it `group_algebra`) for `symmetrize`, `characters` for
`characters`, and `crosscheck` (and through it every layer) for
`selfcheck`.  No reference is kept here, so a function rebound on its
module is the one the next command calls.

Exit codes: 0 success, 1 self-check property failure (a property that
raises fails) or disagreeing Gamas deciders, 2 input or output error
(stdout included), 3 size-limit exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable

from . import __version__
from .combinatorics import SizeLimitError, is_partition
from .linalg import VectorFamily, format_rational, parse_rational

if TYPE_CHECKING:
    from .decision import EqualityVerdict
    from .tensor import SparseTensor

EXIT_OK = 0
EXIT_SELFCHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_LIMIT_ERROR = 3

#: Commands refuse degrees above this unless --max-n raises it.
DEFAULT_MAX_N = 8


class InputError(Exception):
    """Malformed instance file, inconsistent instance data or bad arguments."""


def check_limit(n: int, max_n: int) -> None:
    """Refuse a command of degree n past the size limit max_n."""
    if n > max_n:
        raise SizeLimitError(f"degree {n} exceeds the size limit {max_n}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_vector_list(raw, dim: int, n: int, label: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != n:
        raise InputError(f'"{label}" must be a list of {n} vectors')
    vectors = []
    for vec in raw:
        if not isinstance(vec, list) or len(vec) != dim:
            raise InputError(f'every vector in "{label}" must have {dim} entries')
        try:
            vectors.append(tuple(parse_rational(x) for x in vec))
        except ValueError as exc:
            raise InputError(f'bad rational in "{label}": {exc}') from exc
    return tuple(vectors)


def load_instance(path: str, require_u: bool = False):
    """Parse an instance file into (lambda, v-family, u-family-or-None)."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("instance must be a JSON object")
    dim = obj.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InputError('"dim" must be a positive integer')
    lam = obj.get("lambda")
    if (
        not isinstance(lam, list)
        or not all(_is_int(p) for p in lam)
        or not is_partition(lam)
    ):
        raise InputError('"lambda" must be a weakly decreasing list of positive integers')
    lam = tuple(lam)
    n = sum(lam)
    fv = VectorFamily(dim, _parse_vector_list(obj.get("v"), dim, n, "v"))
    fu = None
    if obj.get("u") is not None:
        fu = VectorFamily(dim, _parse_vector_list(obj.get("u"), dim, n, "u"))
    elif require_u:
        raise InputError('"u" is required for this command')
    return lam, fv, fu


def _json_list(items: Iterable[str], newline: str) -> str:
    """The JSON list of items, each JSON text written for one level below
    newline, the line break and indentation of the list's own level."""
    inner = newline + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + newline + "]" if body else "[]"


def _emit(text: str, output: str | None) -> None:
    text += "\n"
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit; on devnull that
            # flush cannot fail too and turn exit 2 into 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError(f"cannot write stdout: {exc}") from exc


def _columns_json(columns) -> str:
    """`json.dumps` of columns, a sequence of int sequences or None, as the
    value of a top-level key: a list of int lists, or null."""
    if columns is None:
        return "null"
    return _json_list((_json_list(map(str, c), "\n    ") for c in columns), "\n  ")


def _rational_writer() -> Callable[[Fraction], str]:
    """A writer of rationals as JSON strings, for one payload, that formats
    each value once: its texts are keyed by numerator and denominator,
    which hash faster than a `Fraction`.  A numeral needs no escape."""
    texts: dict[tuple[int, int], str] = {}

    def rational(q: Fraction) -> str:
        key = q.numerator, q.denominator
        text = texts.get(key)
        if text is None:
            text = texts[key] = '"%s"' % format_rational(q)
        return text

    return rational


def _tensor_text(x: SparseTensor) -> str:
    """`json.dumps(tensor.to_json_obj(x), indent=2)`, from one template:
    each entry, in index order, by one `%` template for the order, `%d`
    per slot and `%s` for the coefficient, with no dict or list built for
    it, and each coefficient value formatted once (`_rational_writer`)."""
    rational = _rational_writer()
    slots = _json_list(["%d"] * x.order, "\n      ")
    template = '{\n      "index": ' + slots + ',\n      "coeff": %s\n    }'
    entries = [
        template % (*index, rational(coeff)) for index, coeff in sorted(x.entries.items())
    ]
    return '{\n  "dim": %d,\n  "order": %d,\n  "entries": %s\n}' % (
        x.dim, x.order, _json_list(entries, "\n  ")
    )


def _verdict_text(verdict: EqualityVerdict) -> str:
    """`json.dumps` of the verdict's payload (`verdict_json` in the tests),
    indent 2, from one template, with each failure and witness written by
    one template of its own.  A column's text is written once per call,
    and so is a rational value's (`_rational_writer`).  The mode and the
    reasons are `decision`'s ASCII constants, quoted in the templates
    with nothing to escape."""
    column = functools.cache(lambda c: _json_list(map(str, c), "\n        "))
    rational = _rational_writer()

    def head(system) -> str:
        return '{\n      "system": ' + _json_list(map(column, system), "\n      ")

    def scalars(values) -> str:
        return _json_list(map(rational, values), "\n      ")

    failures = [
        head(f.system)
        + ',\n      "reason": "%s"' % f.reason
        + (
            ""
            if f.scalars is None
            else ',\n      "scalars": ' + scalars(f.scalars)
            + ',\n      "product": ' + rational(f.product)
        )
        + "\n    }"
        for f in verdict.failures
    ]
    witnesses = [
        head(w.system)
        + ',\n      "sigma": '
        + _json_list(map(str, w.sigma), "\n      ")
        + ',\n      "scalars": '
        + scalars(w.scalars)
        + ',\n      "product": "1"\n    }'  # what makes it a witness
        for w in verdict.witnesses
    ]
    return '{\n  "equal": %s,\n  "mode": "%s",\n  "failures": %s,\n  "witnesses": %s\n}' % (
        "true" if verdict.equal else "false",
        verdict.mode,
        _json_list(failures, "\n  "),
        _json_list(witnesses, "\n  "),
    )


def _formatted(to_text, result) -> str:
    try:
        return to_text(result)
    except ValueError as exc:  # a numeral past Python's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise SizeLimitError(f"a numeral of the result has over {limit} digits") from exc


def cmd_gamas(args) -> int:
    from .decision import gamas_nonvanishing, gamas_standard

    lam, fv, _ = load_instance(args.input)
    check_limit(sum(lam), args.max_n)
    nonzero, system = gamas_nonvanishing(fv, lam)
    standard_nonzero, tableau = gamas_standard(fv, lam)
    if nonzero != standard_nonzero:
        print(
            f"error: column-system scan says nonzero={nonzero}, "
            f"standard-tableau scan says nonzero={standard_nonzero}",
            file=sys.stderr,
        )
        return EXIT_SELFCHECK_FAILED
    _emit(
        '{\n  "nonzero": %s,\n  "witness_system": %s,\n  "standard_witness": %s\n}'
        % ("true" if nonzero else "false", _columns_json(system), _columns_json(tableau)),
        args.output,
    )
    return EXIT_OK


def cmd_equal(args) -> int:
    from .decision import decide_equality

    lam, fv, fu = load_instance(args.input, require_u=True)
    check_limit(sum(lam), args.max_n)
    verdict = decide_equality(fv, fu, lam, args.exhaustive_failures)
    _emit(_formatted(_verdict_text, verdict), args.output)
    return EXIT_OK


def cmd_symmetrize(args) -> int:
    from .group_algebra import _check_table_degree
    from .tensor import decomposable, project

    lam, fv, _ = load_instance(args.input)
    check_limit(sum(lam), args.max_n)
    # before the d^n entries are built, not only inside `project`
    _check_table_degree(sum(lam))
    result = project(decomposable(fv), lam)
    if args.shape_only:
        shape = {"dim": result.dim, "order": result.order, "entry_count": len(result.entries)}
        text = json.dumps(shape, indent=2)
    else:
        text = _formatted(_tensor_text, result)
    _emit(text, args.output)
    return EXIT_OK


def cmd_characters(args) -> int:
    from .characters import character_table

    if args.n < 0:
        raise InputError("--n must be at least 0")
    check_limit(args.n, args.max_n)
    # the table's fields are the payload's keys, in order
    _emit(json.dumps(character_table(args.n)._asdict(), indent=2), args.output)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    import random

    from . import crosscheck

    if args.n < 1:
        raise InputError("--n must be at least 1")
    if args.trials < 0:
        raise InputError("--trials must be at least 0")
    check_limit(args.n, args.max_n)
    rng = random.Random(args.seed)
    results = []
    for name, prop in crosscheck.properties(args.n, args.trials, rng):
        try:
            checks = prop()
        except Exception as exc:  # a crashing property is a failed property
            print(f"error: {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            checks = None
        passed = checks is not None
        results.append({"name": name, "pass": passed, "checks": checks if passed else 0})
    ok = all(r["pass"] for r in results)
    payload = {"n": args.n, "trials": args.trials, "seed": args.seed, "properties": results, "ok": ok}
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK if ok else EXIT_SELFCHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symten",
        description="Symmetrized decomposable tensors over the rationals: "
        "vanishing and equality, decided combinatorially and by brute force.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input: bool):
        if needs_input:
            p.add_argument("--input", required=True, help="instance JSON file")
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument(
            "--max-n",
            type=int,
            default=DEFAULT_MAX_N,
            help="size guard for factorial enumerations",
        )

    p = sub.add_parser("gamas", help="decide vanishing of the symmetrized tensor")
    add_common(p, True)

    p = sub.add_parser("equal", help="decide equality of two symmetrized tensors")
    add_common(p, True)
    p.add_argument(
        "--exhaustive-failures",
        action="store_true",
        help="collect all failing systems instead of stopping at the first",
    )

    p = sub.add_parser("symmetrize", help="compute the symmetrized tensor")
    add_common(p, True)
    p.add_argument(
        "--shape-only",
        action="store_true",
        help="emit dimensions and entry count without the entries",
    )

    p = sub.add_parser("characters", help="emit the character table of S_n")
    add_common(p, False)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("selfcheck", help="run randomized cross-validation suites")
    add_common(p, False)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_n < 0:
            raise InputError("--max-n must be at least 0")
        # looked up by name on each call, so a rebound cmd_ function takes effect
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
