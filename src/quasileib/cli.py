"""Command-line interface.

Every command is a thin adapter over one library operation; input and
output are JSON.  Exit codes: 0 when the command succeeds and the checked
property holds, 1 when a checked property fails (an identity, a quasi-ideal
verdict, an isomorphism, a lemma clause), 2 on malformed input, unusable
flags or an exceeded budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from .algebra import LeibnizAlgebra, series, table_from_json, validate
from .errors import DimensionMismatch, MalformedInput, QuasileibError
from .fields import parse_field, parse_scalar
from .linalg import DEFAULT_BUDGET, raw_echelonize
from .quasi import core, is_quasi_ideal, quasi_ideals

# each family that the ``family`` command builds, and the flags it reads,
# each mapped to the ``families.build`` parameter that it sets (--rank
# through the shipped default form of that rank)
FAMILY_FLAGS = {
    "abelian": {"--dim": "dim"},
    "almost_abelian_lie": {"--dim": "dim"},
    "k2": {},
    "non_lie_almost_abelian": {"--dim-i": "dim_i"},
    "two_dim_nilpotent_cyclic": {},
    "two_dim_solvable_cyclic": {},
    "extraspecial_sum": {"--dim-z": "dim_z", "--rank": "gram"},
    "char2_nonperfect_minimal": {"--lambda": "lam"},
}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedInput(f"{path}: JSON nested too deeply") from None


def _load_algebra(path) -> LeibnizAlgebra:
    return LeibnizAlgebra(table_from_json(_load_json(path)))


def _load_table(path):
    return table_from_json(_load_json(path))


def _load_subspace(alg, path):
    gens = _load_json(path)
    if not (isinstance(gens, list) and all(isinstance(row, list) for row in gens)):
        raise MalformedInput("a subspace file is a list of generator lists")
    for row in gens:
        if len(row) != alg.dim:
            raise DimensionMismatch(f"vector length {len(row)} in F^{alg.dim}")
    decode = alg.field.decode
    return raw_echelonize(alg.field, alg.dim, [[decode(x) for x in row] for row in gens])


def _emit(obj, out_path):
    text = json.dumps(obj, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_validate(args):
    table = _load_table(args.algebra)
    result = validate(table, args.mode)
    _emit(result.to_json(), args.out)
    return 0 if result.ok else 1


def _cmd_info(args):
    alg = _load_algebra(args.algebra)
    inv = census_mod.algebra_invariants(alg)
    _emit(
        {
            **inv._asdict(),
            "field": alg.field.to_json(),
            "basis_names": list(alg.basis_names),
            "is_nilpotent": inv.lower_central_dims[-1] == 0,
            "is_solvable": inv.derived_dims[-1] == 0,
        },
        args.out,
    )
    return 0


def _cmd_quasi_check(args):
    alg = _load_algebra(args.algebra)
    h = _load_subspace(alg, args.subspace)
    verdict = is_quasi_ideal(alg, h)
    _emit(verdict.to_json(), args.out)
    return 0 if verdict.holds else 1


def _cmd_quasi_list(args):
    alg = _load_algebra(args.algebra)
    found = quasi_ideals(alg, budget=args.budget)
    _emit({"count": len(found), "quasi_ideals": [s.to_json() for s in found]}, args.out)
    return 0


def _cmd_core(args):
    alg = _load_algebra(args.algebra)
    h = _load_subspace(alg, args.subspace)
    result = core(alg, h)
    _emit({"dim": result.dim, "basis": result.to_json()}, args.out)
    return 0


def _cmd_series(args):
    alg = _load_algebra(args.algebra)
    h = _load_subspace(alg, args.subspace) if args.subspace else None
    chain = series(alg, h, args.kind)
    _emit(
        {
            "kind": args.kind,
            "dims": [s.dim for s in chain],
            "terms": [s.to_json() for s in chain],
        },
        args.out,
    )
    return 0


def _cmd_classify(args):
    alg = _load_algebra(args.algebra)
    result = census_mod.classify_q_member(alg, budget=args.budget)
    in_q = None
    if alg.field.is_finite:
        in_q, _ = census_mod.in_class_q(alg, budget=args.budget)
    out = result.to_json()
    out["in_q"] = in_q
    _emit(out, args.out)
    return 0


def _cmd_family(args):
    from . import families as families_mod  # only here: no other command needs it

    field = parse_field(args.field)
    lam = None if args.lam is None else parse_scalar(field, args.lam)
    given = {
        "--dim": args.dim,
        "--dim-i": args.dim_i,
        "--dim-z": args.dim_z,
        "--lambda": lam,
        "--rank": args.rank,
    }
    reads = FAMILY_FLAGS[args.name]
    params = {}
    for flag, value in given.items():
        if value is None:
            continue
        if flag not in reads:
            raise MalformedInput(f"family {args.name} does not read {flag}")
        params[reads[flag]] = value
    if args.rank is not None:
        params["gram"] = families_mod.default_anisotropic_gram(field, args.rank)
    alg = families_mod.build(args.name, field, params, budget=args.budget)
    _emit(alg.table.to_json(), args.out)
    return 0


def _cmd_census(args):
    report = census_mod.sweep_tables(
        parse_field(args.field),
        args.dim,
        budget=args.budget,
        run_lemmas=args.lemmas,
    )
    _emit(report.to_json(), args.out)
    return 1 if report.lemma_failures else 0


def _cmd_lemmas(args):
    alg = _load_algebra(args.algebra)
    report = census_mod.lemma_harness([("algebra", alg)], budget=args.budget)
    _emit(report.to_json(), args.out)
    return 0 if report.ok() else 1


def _cmd_isomorphic(args):
    a = _load_algebra(args.first)
    b = _load_algebra(args.second)
    result = census_mod.are_isomorphic(a, b, budget=args.budget)
    _emit({"isomorphic": result}, args.out)
    return 0 if result else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line, like every other input error."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _count(text: str) -> int:
    """An integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _worker_count(text: str) -> int:
    """A count of at least 1 and at most the number of CPUs."""
    value = _count(text)
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise argparse.ArgumentTypeError(f"must be at most {cpus} (CPUs), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasileib",
        description="Exact quasi-ideal analysis of finite-dimensional "
        "Leibniz algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    def common(p):
        out(p)
        p.add_argument(
            "--budget",
            type=_count,
            default=DEFAULT_BUDGET,
            help="enumeration cap (default %(default)s)",
        )

    p = sub.add_parser("validate", help="check a multiplication table identity")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--mode", choices=("right", "left", "lie"), default="right")
    out(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="print structural invariants")
    p.add_argument("algebra")
    out(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("quasi", help="quasi-ideal verdicts")
    actions = p.add_subparsers(dest="action", required=True)
    q = actions.add_parser("check", help="decide one subspace, with a certificate")
    q.add_argument("--algebra", required=True)
    q.add_argument("--subspace", required=True, help="generator file")
    out(q)
    q.set_defaults(func=_cmd_quasi_check)
    q = actions.add_parser("list", help="every quasi-ideal, over a finite field")
    q.add_argument("--algebra", required=True)
    common(q)
    q.set_defaults(func=_cmd_quasi_list)

    p = sub.add_parser("core", help="largest ideal inside a subspace")
    p.add_argument("--algebra", required=True)
    p.add_argument("--subspace", required=True)
    out(p)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("series", help="descending series of a subalgebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--subspace")
    p.add_argument(
        "--kind",
        choices=("lower_central", "derived", "omega_of_square"),
        default="lower_central",
    )
    out(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("classify", help="match against the catalogue")
    p.add_argument("--algebra", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("family", help="build a named family instance")
    p.add_argument("name", choices=FAMILY_FLAGS)
    p.add_argument("--field", default="q", help="gf2, gf3, q, gf2(t), ...")
    p.add_argument("--dim", type=int)
    p.add_argument("--dim-i", dest="dim_i", type=int)
    p.add_argument("--dim-z", dest="dim_z", type=int)
    p.add_argument("--lambda", dest="lam", help="family coefficient, e.g. t")
    p.add_argument("--rank", type=int, help="rank of the shipped default form")
    common(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser(
        "census",
        help="classify every Leibniz table of one size over GF(p), as far as "
        "--budget allows",
    )
    p.add_argument("--field", required=True, help="a prime field: gf2, gf3, gf5, ...")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="accepted for compatibility, 1 up to the CPU count; the census "
        "runs in one process, so the value does not change the work",
    )
    p.add_argument("--lemmas", action="store_true", help="also run the lemma harness")
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("lemmas", help="run the lemma harness on one algebra")
    p.add_argument("--algebra", required=True)
    common(p)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("isomorphic", help="exhaustive isomorphism test")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(func=_cmd_isomorphic)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuasileibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
