import hashlib
import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator, ValidationError

from quasileib import census, cli
from quasileib.algebra import build_table, table_from_json
from quasileib.cli import run
from quasileib.errors import MalformedInput
from quasileib.fields import QQ, is_prime, parse_field
from tests.conftest import SCHEMA_REGISTRY, SCHEMAS, check_schema


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_generators(path, rows):
    check_schema(rows, "generators.schema.json")
    path.write_text(json.dumps(rows))
    return str(path)


@pytest.fixture()
def example_algebra(tmp_path):
    path = tmp_path / "ex.json"
    code = run(
        ["family", "char2_nonperfect_minimal", "--field", "gf2(t)", "--out", str(path)]
    )
    assert code == 0
    return path


def test_family_then_validate_round_trip(tmp_path, capsys, example_algebra):
    payload = json.loads(example_algebra.read_text())
    check_schema(payload, "algebra.schema.json")
    code, out = run_json(capsys, ["validate", str(example_algebra)])
    assert code == 0 and out["ok"]
    check_schema(out, "validate.schema.json")
    code, out = run_json(capsys, ["validate", str(example_algebra), "--mode", "left"])
    assert code == 0 and out["ok"]

    # reload reproduces the in-memory construction
    from quasileib.algebra import table_from_json
    from quasileib.families import char2_nonperfect_minimal
    from quasileib.fields import FunctionField

    assert table_from_json(payload) == char2_nonperfect_minimal(FunctionField(2)).table


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"kind": "prime", "p": 2},
                "dim": 1,
                "basis_names": ["e"],
                "table": [[[1]]],
            }
        )
    )
    code, out = run_json(capsys, ["validate", str(bad)])
    assert code == 1
    assert out["witness"] == [0, 0, 0]
    check_schema(out, "validate.schema.json")


def test_malformed_input_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{\"dim\": 1}")
    assert run(["validate", str(broken)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["info", str(missing)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run(["info", str(notjson)]) == 2


@pytest.mark.parametrize(
    "table",
    [5, [[[0, 0], [0, 0]], [[0, 0]]], [[[0, 0], 5], [[0, 0], [0, 0]]]],
    ids=["scalar", "ragged", "non_list_product"],
)
def test_malformed_table_exits_2_with_one_line(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"field": {"kind": "prime", "p": 2}, "dim": 2, "table": table})
    )
    for argv in (["validate", str(path)], ["classify", "--algebra", str(path)]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"field": {"kind": "prime"}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": null}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": 1e400}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": 1000000000000000000000000000057}, "dim": 1, '
        '"table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": 3.9}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": "3"}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "prime", "p": true}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "rational_function", "p": 2.0}, "dim": 1, "table": [[[0]]]}',
        '{"field": {"kind": "rational_function", "p": 2, "var": 3}, "dim": 1, '
        '"table": [[[{"num": [], "den": [1]}]]]}',
        '{"field": {"kind": "prime", "p": 3}, "dim": false, "table": []}',
        '{"field": {"kind": "prime", "p": 3}, "dim": 1, "table": [[[true]]]}',
        '{"field": {"kind": "rational_function", "p": 3}, "dim": 1, '
        '"table": [[[{"num": [true], "den": [1]}]]]}',
    ],
    ids=[
        "missing_p",
        "null_p",
        "overflowing_p",
        "p_past_primality_bound",
        "float_p",
        "string_p",
        "bool_p",
        "float_function_field_p",
        "non_string_var",
        "bool_dim",
        "bool_gf_p_scalar",
        "bool_polynomial_coefficient",
    ],
)
def test_malformed_field_or_json_bool_exits_2(tmp_path, capsys, text):
    # JSON integers only: no bools, floats, strings or nulls where the field,
    # the dimension or a scalar needs an integer; and no p past the bound
    # below which primality is decided
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


_HUGE_FAMILIES = """
import time
from quasileib.cli import run

for argv in (
    ["abelian", "--field", "q", "--dim", "100000"],
    ["almost_abelian_lie", "--field", "gf2", "--dim", "101"],
    ["non_lie_almost_abelian", "--field", "gf3", "--dim-i", "100000"],
    ["extraspecial_sum", "--field", "q", "--dim-z", "100000"],
):
    start = time.perf_counter()
    code = run(["family", *argv])
    print(code, time.perf_counter() - start)
"""


def test_family_refuses_tables_over_budget_before_building():
    # a dim-100000 cube would take every byte of memory; n^3 > budget is
    # refused first, in a fresh process so that a regression cannot take
    # the test run down with it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-c", _HUGE_FAMILIES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    runs = [line.split() for line in result.stdout.splitlines()]
    assert [code for code, _ in runs] == ["2"] * 4
    assert all(float(seconds) < 1 for _, seconds in runs), runs
    errors = result.stderr.splitlines()
    assert len(errors) == 4
    assert all(e.startswith("error: structure constants of a dim-") for e in errors)
    assert "1030301 exceeds budget 1000000" in errors[1]


_IDENTITY_SCANS = """
import time
from quasileib.cli import run

for argv in (
    ["abelian", "--field", "q", "--dim", "100"],
    ["abelian", "--field", "gf2", "--dim", "32"],
    ["abelian", "--field", "gf2", "--dim", "31", "--out", "{out}"],
):
    start = time.perf_counter()
    code = run(["family", *argv])
    print(code, time.perf_counter() - start)
"""


def test_family_refuses_identity_scans_over_budget(tmp_path):
    # the right identity takes n^4 steps over a dim-n table: dim 100 has
    # 10^6 constants, within the default budget, but 10^8 steps, which ran
    # for more than 20 s before this count; a fresh process keeps a
    # regression from holding up the test run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    script = _IDENTITY_SCANS.replace("{out}", str(tmp_path / "a31.json"))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    runs = [line.split() for line in result.stdout.splitlines()]
    assert [code for code, _ in runs] == ["2", "2", "0"]
    assert all(float(seconds) < 1 for _, seconds in runs), runs
    assert result.stderr.splitlines() == [
        "error: right-identity steps of a dim-100 table: 100000000 exceeds budget 1000000",
        "error: right-identity steps of a dim-32 table: 1048576 exceeds budget 1000000",
    ]


def test_identity_scan_count_is_floored_at_the_default_budget():
    # a budget that admits a table's n^3 constants admits its check up to
    # DEFAULT_BUDGET steps (dim 3 at budget 27 stays admitted, as pinned
    # above); a larger budget raises the cap with it
    from quasileib.errors import BudgetExceeded
    from quasileib.families import _require_table

    for n, budget in ((3, 27), (11, 20_000), (12, 20_000), (31, 10**6), (37, 2 * 10**6)):
        _require_table(n, budget)
    with pytest.raises(BudgetExceeded, match="dim-38 table: 2085136 exceeds budget 2000000"):
        _require_table(38, 2 * 10**6)
    with pytest.raises(BudgetExceeded, match="structure constants of a dim-28 table"):
        _require_table(28, 20_000)


_HUGE_PRIMES = """
import time
from quasileib.cli import run

p = 2**61 - 1
for argv in (
    ["family", "abelian", "--field", f"gf{p}", "--dim", "1"],
    ["census", "--field", f"gf{p}", "--dim", "1"],
):
    start = time.perf_counter()
    code = run(argv)
    print(code, time.perf_counter() - start)
"""


def test_huge_prime_moduli_answer_in_bounded_time():
    # primality of 2^61 - 1 takes Miller-Rabin, not trial division; the
    # dim-1 census is refused by the oracle's count of F^1 before any group
    # generator (a primitive root of p) is looked for
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-c", _HUGE_PRIMES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    runs = [line.split() for line in result.stdout.splitlines() if line[:1].isdigit()]
    assert [code for code, _ in runs] == ["0", "2"]
    assert all(float(seconds) < 1 for _, seconds in runs), runs
    assert '"p": 2305843009213693951' in result.stdout
    assert result.stderr == (
        "error: projective points of F^1: 2305843009213693951 exceeds budget 1000000\n"
    )


_SAFE_PRIME = """
import time
from quasileib.cli import run

p = 2305843009213691579
start = time.perf_counter()
code = run(["census", "--field", f"gf{p}", "--dim", "1", "--budget", str(3 * 10**18)])
print(code, time.perf_counter() - start)
"""


def test_safe_prime_dim1_census_stops_trial_division_at_a_prime_cofactor():
    # p - 1 = 2q with q prime: the search for a primitive root of p divides
    # out 2, finds the cofactor q prime and stops, where trial division up
    # to sqrt(q) would not finish
    p = 2305843009213691579
    q = (p - 1) // 2
    assert is_prime(p) and is_prime(q)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(e for e in sys.path if e))
    result = subprocess.run(
        [sys.executable, "-c", _SAFE_PRIME],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert result.returncode == 0, result.stderr
    code, seconds = result.stdout.splitlines()[-1].split()
    assert code == "0" and float(seconds) < 1, result.stdout[-200:]
    report = json.loads(result.stdout[: result.stdout.rindex("}") + 1])
    assert report["totals"] == {"scanned": p, "valid": 1, "classes": 1}
    # the root has order p - 1: no power (p - 1)/r with r = 2, q is 1
    g = census._primitive_root(p)
    assert pow(g, q, p) != 1 and pow(g, 2, p) != 1


def test_dim2_census_over_budget_is_refused_before_building():
    # GF(101) dim 2 has 1,050,601 valid tables; the closed form refuses it
    # before the closure has built a million of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-m", "quasileib.cli", "census", "--field", "gf101", "--dim", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (
        "error: Leibniz tables of GF(101) dim 2: 1050601 exceeds budget 1000000\n"
    )


def test_family_budget_admits_a_table_at_the_bound(capsys):
    argv = ["family", "abelian", "--field", "gf2", "--dim", "3"]
    assert run([*argv, "--budget", "26"]) == 2
    assert "27 exceeds budget 26" in capsys.readouterr().err
    assert run([*argv, "--budget", "27"]) == 0


@pytest.mark.parametrize(
    "gens", [5, [1, 0, 0], {"rows": []}, [[1, 0]], [[1, 0, 0, 0]]]
)
def test_malformed_subspace_exits_2(tmp_path, capsys, example_algebra, gens):
    # the example algebra has dimension 3, so the last two rows are short
    # and long
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(gens))
    argv = ["quasi", "check", "--algebra", str(example_algebra), "--subspace", str(sub)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, example_algebra):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (
        ["info", str(deep)],
        ["quasi", "check", "--algebra", str(example_algebra), "--subspace", str(deep)],
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


def test_info_output(capsys, example_algebra):
    code, out = run_json(capsys, ["info", str(example_algebra)])
    assert code == 0
    check_schema(out, "info.schema.json")
    assert out["dim"] == 3
    assert out["is_symmetric"] is True
    assert out["dim_squares_ideal"] == 1
    assert out["dim_center"] == 1


def test_quasi_check_certificate(tmp_path, capsys):
    # over GF(2) and over QQ, whose scalars are "a/b" strings
    for field, one, zero in (("gf2", 1, 0), ("q", "1/1", "0/1")):
        alg_path = tmp_path / f"na_{field}.json"
        argv = ["family", "non_lie_almost_abelian", "--field", field, "--dim-i", "2"]
        assert run([*argv, "--out", str(alg_path)]) == 0
        check_schema(json.loads(alg_path.read_text()), "algebra.schema.json")
        gens = write_generators(tmp_path / "h.json", [[zero, zero, one]])
        code, out = run_json(
            capsys, ["quasi", "check", "--algebra", str(alg_path), "--subspace", gens]
        )
        assert code == 0 and out["holds"]
        assert out["certificate"] == [{"alpha": one, "beta": zero}]
        check_schema(out, "quasi_verdict.schema.json")

        bad = write_generators(tmp_path / "hx.json", [[one, zero, one]])
        code, out = run_json(
            capsys, ["quasi", "check", "--algebra", str(alg_path), "--subspace", bad]
        )
        assert code == 1 and not out["holds"]
        assert "witness" in out
        check_schema(out, "quasi_verdict.schema.json")


def test_quasi_list(tmp_path, capsys):
    alg_path = tmp_path / "na.json"
    run(
        [
            "family",
            "non_lie_almost_abelian",
            "--field",
            "gf2",
            "--dim-i",
            "2",
            "--out",
            str(alg_path),
        ]
    )
    code, out = run_json(capsys, ["quasi", "list", "--algebra", str(alg_path)])
    assert code == 0
    assert out["count"] == 10
    check_schema(out, "quasi_list.schema.json")


def test_core_command(tmp_path, capsys):
    alg_path = tmp_path / "na.json"
    run(
        [
            "family",
            "non_lie_almost_abelian",
            "--field",
            "gf2",
            "--dim-i",
            "2",
            "--out",
            str(alg_path),
        ]
    )
    gens = write_generators(tmp_path / "hx.json", [[0, 0, 1], [1, 0, 0]])
    code, out = run_json(
        capsys, ["core", "--algebra", str(alg_path), "--subspace", gens]
    )
    assert code == 0
    assert out == {"dim": 1, "basis": [[1, 0, 0]]}
    check_schema(out, "core.schema.json")


def test_series_command(tmp_path, capsys):
    alg_path = tmp_path / "solv.json"
    run(["family", "two_dim_solvable_cyclic", "--field", "gf3", "--out", str(alg_path)])
    code, out = run_json(
        capsys, ["series", "--algebra", str(alg_path), "--kind", "derived"]
    )
    assert code == 0
    assert out["dims"] == [2, 1, 0]
    check_schema(out, "series.schema.json")


def test_classify_command(tmp_path, capsys, example_algebra):
    code, out = run_json(capsys, ["classify", "--algebra", str(example_algebra)])
    assert code == 0
    assert out["verdict"] == "char2_family"
    assert out["params"] == {"dim_c": 1}
    assert out["in_q"] is None  # infinite field: no exhaustive membership scan
    check_schema(out, "classification.schema.json")


def test_classify_counts_vectors_for_membership(tmp_path, capsys):
    # membership is decided on the cyclic subalgebras, one per projective
    # point, so the budget counts the 2^10 vectors of F^10, not its
    # 229,755,605 subspaces
    path = tmp_path / "ab10.json"
    argv = ["family", "abelian", "--field", "gf2", "--dim", "10", "--out", str(path)]
    assert run(argv) == 0
    code, out = run_json(capsys, ["classify", "--algebra", str(path)])
    assert code == 0
    assert out["verdict"] == "abelian" and out["in_q"] is True
    check_schema(out, "classification.schema.json")
    assert run(["classify", "--algebra", str(path), "--budget", "1023"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: projective points of F^10: 1024 exceeds budget 1023\n"
    )


def _squares_form_algebra(path, field_text, gram):
    # basis u_1 .. u_k, z with [u_i, u_j] = gram[i][j] z and every other
    # product 0: z is central, so every such table is Leibniz, and the
    # squares form off the centre is the form of ``gram``
    k = len(gram)
    names = [f"u{i + 1}" for i in range(k)] + ["z"]
    products = {
        (i, j): {k: g} for i, row in enumerate(gram) for j, g in enumerate(row) if g
    }
    table = build_table(parse_field(field_text), names, products)
    path.write_text(json.dumps(table.to_json()))
    return str(path)


@pytest.mark.parametrize(
    "field, gram, message",
    [
        (
            "q",
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "anisotropy of a rank-3 form over QQ, outside characteristic 2",
        ),
        (
            "gf2(t)",
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            "anisotropy of a rank-3 form with cross terms over GF(2)(t)",
        ),
    ],
    ids=["qq_diagonal", "gf2t_cross_terms"],
)
def test_classify_names_the_undecided_anisotropy(tmp_path, capsys, field, gram, message):
    # the E + Z check asks whether the squares form is anisotropic, and
    # over an infinite field that is decided up to rank 2, and at every
    # rank for a diagonal form in characteristic 2; the refusal says which
    # case is left: rank 3 or more outside characteristic 2 (even a
    # diagonal form), or cross terms at rank 3 or more in characteristic 2
    path = _squares_form_algebra(tmp_path / "form.json", field, gram)
    assert run(["validate", path]) == 0
    capsys.readouterr()
    assert run(["classify", "--algebra", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_census_command(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run(
        [
            "census",
            "--field",
            "gf2",
            "--dim",
            "2",
            "--lemmas",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    check_schema(payload, "census_report.schema.json")
    assert payload["totals"] == {"scanned": 256, "valid": 13, "classes": 4}
    assert payload["lemma_failures"] == []


def _main_exit_code(monkeypatch, argv):
    monkeypatch.setattr("sys.argv", ["quasileib", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "0"],
        ["--workers", "-1"],
        ["--workers", "3"],
        ["--workers", "two"],
        ["--sample", "3"],
        ["--seed", "1"],
    ],
    ids=[
        "workers_zero",
        "workers_negative",
        "workers_above_cpus",
        "workers_not_int",
        "sample",
        "seed",
    ],
)
def test_census_count_flags_reject_nonsense(monkeypatch, capsys, flags):
    # rejected while parsing, before any census starts; the census is
    # exhaustive at every supported size, so it neither samples nor takes a
    # seed
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    argv = ["census", "--field", "gf2", "--dim", "2", *flags]
    assert _main_exit_code(monkeypatch, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flags[0] in captured.err


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_census_dim_must_be_positive(monkeypatch, capsys, dim):
    # rejected while parsing, naming the flag
    argv = ["census", "--field", "gf2", "--dim", dim]
    assert _main_exit_code(monkeypatch, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--dim" in captured.err


def test_seed_flag_only_on_census(monkeypatch, capsys, example_algebra):
    # no command samples, so none takes --seed
    argv = ["validate", "--seed", "1", str(example_algebra)]
    assert _main_exit_code(monkeypatch, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--seed" in captured.err


def test_census_workers_up_to_cpu_count_accepted(monkeypatch, capsys):
    # the census runs in one process whatever the worker count
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    argv = ["census", "--field", "gf2", "--dim", "2", "--workers", "2"]
    assert _main_exit_code(monkeypatch, argv) == 0
    assert json.loads(capsys.readouterr().out)["totals"]["classes"] == 4


_SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal")


# the package modules a prime-field census loads: no rationals, GF(p)(t) or
# family constructors
_CENSUS_MODULES = {
    f"quasileib.{name}"
    for name in ("errors", "fields", "linalg", "algebra", "quasi", "census", "cli")
} | {"quasileib"}


def test_cli_import_loads_no_slow_modules(tmp_path):
    # each of these costs start-up time in every CLI process; fractions is
    # imported only when QQ canonicalises a value that is not an int or a pair
    import quasileib.fields as fields_mod
    import quasileib.fracfields as fracfields_mod

    census_argv = ["census", "--field", "gf3", "--dim", "2", "--lemmas"]
    census_argv += ["--out", str(tmp_path / "report.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    for work in ("import quasileib.cli", f"quasileib.cli.run({census_argv!r})"):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import quasileib.cli\n"
            f"{work}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "quasileib.cli" in loaded
        assert not loaded & set(_SLOW_IMPORTS), sorted(loaded & set(_SLOW_IMPORTS))
        package = {name for name in loaded if name.split(".")[0] == "quasileib"}
        assert package <= _CENSUS_MODULES, sorted(package - _CENSUS_MODULES)
    # the names that moved still resolve in fields, to the same objects
    for name in ("QQ", "RationalField", "FunctionField"):
        assert getattr(fields_mod, name) is getattr(fracfields_mod, name)


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax that a 3.10 parser refuses
    import ast

    package = os.path.dirname(cli.__file__)
    sources = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "cli.py" in sources
    for name in sources:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=name, feature_version=(3, 10))


def test_no_module_imports_random():
    # every answer is exact: nothing in the package samples
    import ast

    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "random" for m in modules), name


def test_gf2_dim3_census_runs_without_numpy(tmp_path):
    # a fresh process: the census imports no numpy (only the brute-force
    # test references use it) and writes the pinned report bytes
    out = tmp_path / "report.json"
    argv = ["census", "--field", "gf2", "--dim", "3", "--lemmas", "--out", str(out)]
    script = (
        "import sys\n"
        "from quasileib.cli import run\n"
        f"code = run({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.stdout.split() == ["0", "False"], result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "71982c0690df13d0aa60b5dd112db81027c708be027f357b3b97066b1e418d52"
    )


# sha256 of the `census --lemmas` report at each pinned size
CENSUS_REPORTS = {
    ("gf2", "1"): "32c3fc28e3961784f51909a0e8566d0912e04e4a6f1b639c384261cb2aa52798",
    ("gf2", "2"): "df83f40529e7ea8a582661f0db648beab44de27e652424e37e762019859d83a1",
    ("gf2", "3"): "71982c0690df13d0aa60b5dd112db81027c708be027f357b3b97066b1e418d52",
    ("gf3", "1"): "f572be530b862698433a3016afcee9111edf53047eff4c5ed473fdd5ab35a846",
    ("gf3", "2"): "9fbbd58fcac8446b13b3378db48671568d75bfdb32a40301a296d00693e8584d",
    ("gf3", "3"): "dc392e2d2d5e92ef8860016e98bb3af181716bb1139bf4af5264c3ae95e0bf10",
}


@pytest.mark.parametrize("field, dim", sorted(CENSUS_REPORTS))
def test_census_report_bytes_pinned(tmp_path, field, dim):
    out = tmp_path / "report.json"
    argv = ["census", "--field", field, "--dim", dim, "--lemmas", "--out", str(out)]
    assert run(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CENSUS_REPORTS[field, dim]


def test_census_budget_error(capsys):
    # GF(3) dim 3 has 15,861 valid tables, over a budget of 10000, and
    # GF(2) dim 5 has 2^20 Lie systems, over the default budget
    for argv in (["gf3", "--dim", "3", "--budget", "10000"], ["gf2", "--dim", "5"]):
        assert run(["census", "--field", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["-5", "0", "many"])
@pytest.mark.parametrize("command", ["census", "quasi_list"])
def test_budget_flag_rejects_nonsense(tmp_path, monkeypatch, capsys, command, value):
    # rejected while parsing, naming the flag, instead of failing later
    # with a message about an exceeded budget
    if command == "census":
        argv = ["census", "--field", "gf2", "--dim", "2"]
    else:
        alg_path = tmp_path / "k2.json"
        assert run(["family", "k2", "--field", "gf2", "--out", str(alg_path)]) == 0
        argv = ["quasi", "list", "--algebra", str(alg_path)]
    assert _main_exit_code(monkeypatch, [*argv, "--budget", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--budget" in captured.err


def test_family_budget_bounds_the_anisotropy_check(capsys):
    # the rank-2 form over GF(3) is checked on the projective points of
    # GF(3)^2, whose 9 vectors exceed a budget of 3
    argv = ["family", "extraspecial_sum", "--field", "gf3", "--rank", "2"]
    assert run([*argv, "--budget", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "budget 3" in captured.err
    assert run([*argv, "--budget", "9"]) == 0


@pytest.mark.parametrize("command", ["validate", "info", "core", "series"])
def test_budget_flag_only_where_something_is_enumerated(
    tmp_path, monkeypatch, capsys, example_algebra, command
):
    # these commands enumerate nothing, so they take no --budget
    argv = [command, str(example_algebra)]
    if command in ("core", "series"):
        argv = [command, "--algebra", str(example_algebra)]
    if command == "core":
        argv += ["--subspace", write_generators(tmp_path / "h.json", [])]
    assert _main_exit_code(monkeypatch, [*argv, "--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--budget" in captured.err


@pytest.mark.parametrize(
    "action, flags, named",
    [
        ("check", [], "--subspace"),
        ("check", ["--subspace", "h.json", "--budget", "5"], "--budget"),
        ("list", ["--subspace", "h.json"], "--subspace"),
    ],
    ids=["check_needs_subspace", "check_takes_no_budget", "list_takes_no_subspace"],
)
def test_quasi_flags_belong_to_their_action(
    tmp_path, monkeypatch, capsys, example_algebra, action, flags, named
):
    # check decides the one subspace it is given and enumerates nothing;
    # list enumerates every subspace and is given none
    write_generators(tmp_path / "h.json", [])
    monkeypatch.chdir(tmp_path)
    argv = ["quasi", action, "--algebra", str(example_algebra), *flags]
    assert _main_exit_code(monkeypatch, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_census_exhaustive_flag_removed(monkeypatch, capsys):
    argv = ["census", "--field", "gf2", "--dim", "2", "--exhaustive"]
    assert _main_exit_code(monkeypatch, argv) == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_lemmas_command(tmp_path, capsys):
    alg_path = tmp_path / "k2.json"
    run(["family", "k2", "--field", "gf2", "--out", str(alg_path)])
    code, out = run_json(capsys, ["lemmas", "--algebra", str(alg_path)])
    assert code == 0
    assert out["failures"] == []
    check_schema(out, "lemma_report.schema.json")


@pytest.mark.parametrize(
    "family", [["abelian", "--dim", "2"], ["two_dim_solvable_cyclic"]], ids=lambda v: v[0]
)
def test_lemmas_refuses_f_n_over_budget_before_any_work(
    tmp_path, capsys, monkeypatch, family
):
    # GF(1009)^2 has 1009^2 vectors, over the default budget, while its 1012
    # subspaces are under it: the harness counts F^n before the first clause
    alg_path = tmp_path / "alg.json"
    assert run(["family", *family, "--field", "gf1009", "--out", str(alg_path)]) == 0
    monkeypatch.setattr(census, "_harness_one", None)
    assert run(["lemmas", "--algebra", str(alg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: projective points of F^2: 1018081 exceeds budget 1000000\n"
    )


def test_isomorphic_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["family", "two_dim_solvable_cyclic", "--field", "gf2", "--out", str(a)])
    run(["family", "two_dim_nilpotent_cyclic", "--field", "gf2", "--out", str(b)])
    code, out = run_json(capsys, ["isomorphic", str(a), str(b)])
    assert code == 1 and out["isomorphic"] is False
    check_schema(out, "isomorphic.schema.json")
    code, out = run_json(capsys, ["isomorphic", str(a), str(a)])
    assert code == 0 and out["isomorphic"] is True


def test_family_gate_errors_map_to_exit_2(capsys):
    assert run(["family", "char2_nonperfect_minimal", "--field", "gf2"]) == 2
    assert run(["family", "char2_nonperfect_minimal", "--field", "gf3"]) == 2
    assert run(["family", "k2", "--field", "q"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["extraspecial_sum", "--field", "gf5", "--lambda", "3"], "--lambda"),
        (["abelian", "--field", "gf3", "--dim", "2", "--rank", "2"], "--rank"),
        (["abelian", "--field", "gf3", "--dim-i", "2"], "--dim-i"),
        (["non_lie_almost_abelian", "--field", "gf2", "--dim", "2"], "--dim"),
        (["k2", "--field", "gf2", "--dim-z", "1"], "--dim-z"),
        (["char2_nonperfect_minimal", "--field", "gf2(t)", "--rank", "1"], "--rank"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_family_refuses_flags_it_does_not_read(capsys, argv, flag):
    assert run(["family", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: family {argv[0]} does not read {flag}\n"


def test_family_lambda_flag(tmp_path, capsys):
    path = tmp_path / "c2.json"
    code = run(
        [
            "family",
            "char2_nonperfect_minimal",
            "--field",
            "gf2(t)",
            "--lambda",
            "t^2+t+1",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["table"][0][0][1] == {"num": [1, 1, 1], "den": [1]}
    # the field variable keeps its case
    argv = ["family", "char2_nonperfect_minimal", "--field", "gf2(X)", "--lambda", "X"]
    code, out = run_json(capsys, argv)
    assert code == 0
    assert out["field"] == {"kind": "rational_function", "p": 2, "var": "X"}
    # unbalanced parentheses, no term, and a degree whose coefficient list
    # would not fit in memory each exit 2 with one line
    for lam in ("(t+1", "t)", "+", "t^99999999999"):
        argv = ["family", "char2_nonperfect_minimal", "--field", "gf2(t)", "--lambda", lam]
        assert run(argv) == 2, lam
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_subspace_inputs_are_canonicalized(tmp_path, capsys):
    alg_path = tmp_path / "solv.json"
    run(["family", "two_dim_solvable_cyclic", "--field", "gf3", "--out", str(alg_path)])
    # (2,1) and (1,2) both span F(b-a); redundant unscaled generators are fine
    gens = write_generators(tmp_path / "g.json", [[2, 1], [1, 2]])
    code, out = run_json(
        capsys, ["quasi", "check", "--algebra", str(alg_path), "--subspace", gens]
    )
    assert code == 0 and out["holds"]
    assert len(out["certificate"]) == 1  # canonicalized to a single basis row


def test_qq_zero_denominator_exits_2(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            {
                "field": {"kind": "rationals"},
                "dim": 1,
                "basis_names": ["e1"],
                "table": [[["1/0"]]],
            }
        )
    )
    for argv in (
        ["validate", str(path)],
        ["family", "char2_nonperfect_minimal", "--field", "q", "--lambda", "1/0"],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_field_variable_that_is_not_an_identifier_exits_2(tmp_path, capsys):
    # "gf2(1)" once read the text 1 as the variable, so --lambda 1, a
    # square, became t and the family was built
    for field in ("gf2(1)", "gf2(\u0661)"):
        argv = ["family", "char2_nonperfect_minimal", "--field", field]
        assert run([*argv, "--lambda", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field variable")
        assert captured.err.count("\n") == 1
    path = tmp_path / "var.json"
    argv = ["family", "char2_nonperfect_minimal", "--field", "gf2(t)"]
    assert run([*argv, "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["field"]["var"] = "1"
    with pytest.raises(ValidationError):
        check_schema(payload, "algebra.schema.json")
    path.write_text(json.dumps(payload))
    assert run(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field variable") and err.count("\n") == 1
    # an identifier still reads, and 1 is still a square there
    for field, square, lam in (("gf2(x)", "1", "x"), ("gf2(t1)", "t1^2", "t1")):
        argv = ["family", "char2_nonperfect_minimal", "--field", field]
        assert run([*argv, "--lambda", square]) == 2
        assert "is a square" in capsys.readouterr().err
        assert run([*argv, "--lambda", lam, "--out", str(path)]) == 0
        check_schema(json.loads(path.read_text()), "algebra.schema.json")


def test_rational_scalar_forms_follow_the_schema(tmp_path, capsys):
    # "a" and "a/b" are both QQ text, and a JSON integer, which the shared
    # scalar definition cannot tell from a GF(p) one, reads as itself
    for text, value in (("3", 3), ("-3/4", (-3, 4))):
        check_schema([[text]], "generators.schema.json")
        assert QQ.decode(text) == value
    scalar = SCHEMA_REGISTRY.contents("quasileib/defs.json")["$defs"]["scalar"]
    assert "follows the file's field" in scalar["description"]
    alg = tmp_path / "na_q.json"
    argv = ["family", "non_lie_almost_abelian", "--field", "q", "--dim-i", "2"]
    assert run([*argv, "--out", str(alg)]) == 0
    outputs = []
    for rows in ([["0", "0", "3"]], [[0, 0, 1]]):
        gens = write_generators(tmp_path / "h.json", rows)
        argv = ["quasi", "check", "--algebra", str(alg), "--subspace", gens]
        code, out = run_json(capsys, argv)
        assert code == 0 and out["holds"]
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "field",
    [
        {"kind": "prime", "p": 2},
        {"kind": "prime", "p": 3},
        {"kind": "rationals"},
        {"kind": "rational_function", "p": 2, "var": "t"},
    ],
    ids=["gf2", "gf3", "q", "gf2t"],
)
def test_a_bad_scalar_is_refused_before_or_after_an_equal_valid_one(
    tmp_path, capsys, field
):
    # a table decodes each distinct scalar once, and a bool, a float or an
    # object with an extra key must not take the value of a valid scalar
    # that Python counts equal, whichever of the two comes first
    one = {"num": [1], "den": [1]}
    cases = [
        (1, True),
        (1, 1.0),
        (one, {"num": [True], "den": [1]}),
        (one, {"num": [1.0], "den": [1]}),
        (one, {"num": [1], "den": [True]}),
        (one, {"num": [1], "den": [1], "var": "t"}),
    ]
    path = tmp_path / "bad.json"

    def algebra(first, second):
        return {"field": field, "dim": 2, "table": [[[first, second], [0, 0]], [[0, 0], [0, 0]]]}

    assert table_from_json(algebra(1, 1)).raw[0][0] == (1, 1)
    for good, bad in cases:
        for first, second in ((good, bad), (bad, good)):
            obj = algebra(first, second)
            with pytest.raises(MalformedInput):
                table_from_json(obj)
            path.write_text(json.dumps(obj))
            assert run(["info", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_function_field_file_reads_an_integer_as_a_constant(
    tmp_path, capsys, example_algebra
):
    # the GF(2)(t) example algebra, with the same line written both ways
    outputs = []
    for rows in (
        [[{"num": [], "den": [1]}, {"num": [1], "den": [1]}, {"num": [], "den": [1]}]],
        [[0, 1, 0]],
    ):
        gens = write_generators(tmp_path / "h.json", rows)
        argv = ["quasi", "check", "--algebra", str(example_algebra), "--subspace", gens]
        code, out = run_json(capsys, argv)
        assert code == 0 and out["holds"]
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_gf_p_lambda_that_is_not_an_integer_exits_2(capsys):
    for lam in ("1_0", "1_0/3", "1 2"):
        argv = ["family", "extraspecial_sum", "--field", "gf5", "--lambda", lam]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad GF(5) scalar: {lam!r}\n"


def test_non_ascii_digits_in_a_scalar_exit_2(tmp_path, capsys):
    # the schema's scalars are ASCII digits; "\u0661/\u0662" is Arabic-Indic 1/2,
    # which int() and the regex \d would both read
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            {
                "field": {"kind": "rationals"},
                "dim": 1,
                "basis_names": ["e1"],
                "table": [[["\u0661/\u0662"]]],
            }
        )
    )
    for argv in (
        ["validate", str(path)],
        [
            "family",
            "char2_nonperfect_minimal",
            "--field",
            "gf2(t)",
            "--lambda",
            "t^\u0663",
        ],
        ["family", "abelian", "--field", "gf\u0662", "--dim", "1"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, err


# A 3-dimensional extraspecial algebra over QQ (rank-2 default form, no
# central summand) written in a basis with non-integral change of basis,
# so its table and its series terms carry denominators 3, 4, 5 and more.
QQ_BASE_CHANGED = {
    "field": {"kind": "rationals"},
    "dim": 3,
    "basis_names": ["f1", "f2", "f3"],
    "table": [
        [["-1/1", "1/4", "4/3"], ["-4/5", "1/5", "16/15"], ["-3/5", "3/20", "4/5"]],
        [["-4/5", "1/5", "16/15"], ["-16/5", "4/5", "64/15"], ["0/1", "0/1", "0/1"]],
        [["-3/5", "3/20", "4/5"], ["0/1", "0/1", "0/1"], ["-9/20", "9/80", "3/5"]],
    ],
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["info", "{alg}"],
            "1b8a78b16deabe89fcf70251e342c30f994df0fdd9cbe3710e6bdafd958d05db",
        ),
        (
            ["classify", "--algebra", "{alg}"],
            "09735e6f5772c2de7dfcda974f4cc718424b292c69f46acf0c3e118c769740c4",
        ),
        (
            ["series", "--algebra", "{alg}"],
            "4fdeec19024916bce068ed6f3eabe7eeb3ce35fb2f0bcf16a6d8805ab5bba0a4",
        ),
        (
            ["series", "--algebra", "{alg}", "--kind", "derived"],
            "ade98df0bc394bf171c93e428089d671bea1528239a6a3ee325763bde41b7a6f",
        ),
    ],
    ids=["info", "classify", "series", "series_derived"],
)
def test_qq_output_bytes_are_pinned(tmp_path, capsys, argv, digest):
    path = tmp_path / "qq.json"
    path.write_text(json.dumps(QQ_BASE_CHANGED))
    assert run([a.format(alg=path) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
    schema = {"classify": "classification"}.get(argv[0], argv[0])
    check_schema(json.loads(out), f"{schema}.schema.json")
    if argv[0] == "series":
        assert json.loads(out)["terms"][1] == [["1/1", "-1/4", "-4/3"]]


def test_every_schema_is_valid_and_every_ref_resolves():
    # defs.json is the one definition of scalars, vectors, bases and
    # fields; a mistyped reference fails here, not in a user's validator
    def refs(node):
        if isinstance(node, dict):
            if "$ref" in node:
                yield node["$ref"]
            for value in node.values():
                yield from refs(value)
        elif isinstance(node, list):
            for value in node:
                yield from refs(value)

    seen = set()
    for path in sorted(SCHEMAS.glob("*.json")):
        schema = json.loads(path.read_text())
        Draft202012Validator.check_schema(schema)
        assert ("$defs" in schema) == (path.name == "defs.json"), path.name
        resolver = SCHEMA_REGISTRY.resolver(base_uri=schema["$id"])
        for ref in refs(schema):
            resolver.lookup(ref)
            seen.add(ref)
    assert {"defs.json#/$defs/scalar", "algebra.schema.json"} <= seen
