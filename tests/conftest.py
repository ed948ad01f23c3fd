import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from quasileib.algebra import LeibnizAlgebra, MultiplicationTable
from quasileib.census import sweep_tables
from quasileib.families import (
    abelian,
    almost_abelian_lie,
    char2_nonperfect,
    char2_nonperfect_minimal,
    default_anisotropic_gram,
    extraspecial_sum,
    k2,
    non_lie_almost_abelian,
    two_dim_nilpotent_cyclic,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField
from quasileib.linalg import raw_combination, raw_identity, raw_rref, vec

F2T = FunctionField(2)

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "quasileib" / "schemas"
# every schema in the directory under its $id, so that a "defs.json#/..." or
# "algebra.schema.json" reference resolves to the file beside it
SCHEMA_REGISTRY = Registry().with_resources(
    (resource.id(), resource)
    for resource in (
        Resource.from_contents(json.loads(path.read_text()))
        for path in sorted(SCHEMAS.glob("*.json"))
    )
)


def check_schema(payload, name):
    """Validate payload against the schema file of that name."""
    schema = SCHEMA_REGISTRY.contents(f"quasileib/{name}")
    Draft202012Validator(schema, registry=SCHEMA_REGISTRY).validate(payload)


def transport(alg, p_rows):
    """The same algebra written in the basis with images p_rows."""
    field, n = alg.field, alg.dim
    p_raw = [field.unwrap(row) for row in p_rows]
    # [P | I] row-reduces to [I | P^-1]
    augmented = [row + unit for row, unit in zip(p_raw, raw_identity(field, n))]
    reduced, _ = raw_rref(field, augmented, 2 * n)
    pinv = tuple(row[n:] for row in reduced)
    br = alg.table.raw_bracket
    cube = tuple(
        tuple(raw_combination(field, br(a, b), pinv, n) for b in p_raw) for a in p_raw
    )
    return LeibnizAlgebra(MultiplicationTable(field, n, cube))


def dense_basis(field, n):
    """A fixed basis of F^n over every field: the rows of L U for the
    all-ones unitriangular L (lower) and U (upper), with entry (i, j)
    equal to min(i, j) + 1 and determinant 1; a table in it is dense."""
    return [vec(field, [min(i, j) + 1 for j in range(n)]) for i in range(n)]


def finite_family_corpus(max_dim: int = 4):
    """Every family instance over GF(2) and GF(3) of dimension <= max_dim,
    as (label, algebra) pairs.  The characteristic-2 non-perfect families
    cannot exist over finite fields and are absent by construction."""
    out = []
    for fld, tag in ((GF2, "gf2"), (GF3, "gf3")):
        for d in range(1, max_dim + 1):
            out.append((f"abelian_{d}/{tag}", abelian(fld, d)))
        for d in range(2, max_dim + 1):
            out.append((f"almost_abelian_lie_{d}/{tag}", almost_abelian_lie(fld, d)))
        for k in range(1, max_dim):
            out.append(
                (f"non_lie_almost_abelian_{k}/{tag}", non_lie_almost_abelian(fld, k))
            )
        out.append((f"two_dim_nilpotent_cyclic/{tag}", two_dim_nilpotent_cyclic(fld)))
        out.append((f"two_dim_solvable_cyclic/{tag}", two_dim_solvable_cyclic(fld)))
        for rank in (1, 2):
            gram = default_anisotropic_gram(fld, rank)
            for dim_z in range(0, max_dim - rank):
                out.append(
                    (
                        f"extraspecial_r{rank}_z{dim_z}/{tag}",
                        extraspecial_sum(fld, gram, dim_z=dim_z),
                    )
                )
    out.append(("k2/gf2", k2(GF2)))
    return out


def gf2_dim3_class_representatives():
    """One algebra per isomorphism class of the GF(2) dim-3 census, rebuilt
    from the report's tables so that each starts with empty caches."""
    report = sweep_tables(GF2, 3)
    assert report.totals["classes"] == 20
    return [
        LeibnizAlgebra(MultiplicationTable(GF2, 3, entry.algebra.table.raw))
        for entry in report.classes
    ]


def nine_default_instances():
    """One representative build per family constructor."""
    return {
        "abelian": abelian(GF3, 3),
        "almost_abelian_lie": almost_abelian_lie(QQ, 3),
        "k2": k2(GF2),
        "non_lie_almost_abelian": non_lie_almost_abelian(GF2, 2),
        "two_dim_nilpotent_cyclic": two_dim_nilpotent_cyclic(QQ),
        "two_dim_solvable_cyclic": two_dim_solvable_cyclic(GF3),
        "extraspecial_sum": extraspecial_sum(
            GF3, default_anisotropic_gram(GF3, 2), dim_z=1
        ),
        "char2_nonperfect": char2_nonperfect(F2T),
        "char2_nonperfect_minimal": char2_nonperfect_minimal(F2T),
    }


SYMMETRIC_FAMILIES = (
    "extraspecial_sum",
    "char2_nonperfect",
    "char2_nonperfect_minimal",
)


@pytest.fixture(scope="session")
def gf3_dim3_census():
    """The GF(3) dim-3 census with the lemma harness, run once per session."""
    return sweep_tables(GF3, 3, run_lemmas=True)


@pytest.fixture(scope="session")
def gf2_dim4_census():
    """The GF(2) dim-4 census with the lemma harness, run once per session."""
    return sweep_tables(GF2, 4, run_lemmas=True)


@pytest.fixture(scope="session")
def family_corpus():
    return finite_family_corpus()


@pytest.fixture(scope="session")
def nine_families():
    return nine_default_instances()
