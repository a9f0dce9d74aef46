import random

from ffheight.census import InstanceSpec, count_points
from ffheight.suite import (
    PELL_INSTANCES,
    PELL_QS,
    CheckRow,
    curve_instances,
    pell_instance,
    random_hypersurfaces,
    run_example_suite,
)


TRIMMED_SUITE_LABELS = [
    *[("y=x^2", f"count b={b} q={q}") for b in (1, 2) for q in (3, 5, 7)],
    *[("y=x^3", f"count b={b} q={q}") for b in (1, 2) for q in (3, 5, 7)],
    ("y*z=x^2", "fitted dim b=1"),
    ("y*z=x^2", "fitted dim b=2"),
    ("y*z^2=x^3", "fitted dim b=1"),
    ("y*z^2=x^3", "fitted dim b=2"),
    ("xy=z", "fitted dim b=2"),
    ("xy=z", "leading constant b=2 q=11"),
    ("t*x^2=y*z", "b=1: x0^2 in I, x0 not in I"),
    ("t*x^2=y*z", "b=2: x1^2 in I, x1 not in I"),
    *[
        ("pell", f"{eq}: |solutions| h<=2 across q=(5, 7, 11, 13)")
        for eq, *_ in PELL_INSTANCES
    ],
    *[
        ("pell family", f"n={n} q={q}: 2^n distinct solutions of height <= n+1")
        for n, q in ((1, 11), (2, 47), (3, 131))
    ],
    ("spot: y=x^3 deep", "count b=7 q=3"),
    ("spot: y=x^3 deep", "count b=7 q=5"),
    *[
        ("spot: sextic threefold section", f"b=1 q={q}: N/q^2 <= 7")
        for q in (3, 5, 7, 11)
    ],
    *[
        ("spot: sextic surface minus line plane", f"q={q}: count stalls at b=1,2")
        for q in (3, 5, 7)
    ],
]


def test_trimmed_suite_all_green():
    rows = run_example_suite(qs=(3, 5, 7), bs=(1, 2))
    bad = [r for r in rows if not r.ok]
    assert not bad, [f"{r.example}: {r.detail}" for r in bad]
    assert [(r.example, r.detail) for r in rows] == TRIMMED_SUITE_LABELS


def test_check_row_json():
    row = CheckRow("ex", "detail", "1", "1", True)
    js = row.to_json()
    assert js["ok"] is True
    assert set(js) >= {"example", "detail", "expected", "observed", "ok"}


def test_curve_instances_well_formed():
    insts = curve_instances()
    assert insts
    for inst in insts:
        X = inst.variety(5)
        assert X.ncoords == len(inst.names)
        assert inst.dim is not None


def test_pell_instance_helpers():
    eq, bc, gc, expected = PELL_INSTANCES[0]
    inst = pell_instance(bc, gc, 5)
    assert inst.beta.deg == 2
    census = InstanceSpec(
        name=f"pell {eq}",
        ambient="affine",
        names=("x", "y"),
        equations=(eq,),
        inequations=(),
        dim=0,
        degree=2,
    )
    assert census.dim == 0
    # the census instance counts the same solutions the solver sees
    X = census.variety(5)
    from ffheight.pell import pell_solutions

    got = count_points(X, 3).count  # height <= 2 means degrees < 3
    assert got == len(pell_solutions(inst, 2).solutions) == expected


def test_pell_instances_table_shape():
    assert len(PELL_INSTANCES) == 10
    assert len(PELL_QS) == 4
    for eq, bc, gc, expected in PELL_INSTANCES:
        assert expected > 0
        assert len(bc) >= 3
        inst = pell_instance(bc, gc, 5)  # validates beta


def test_random_hypersurfaces_shape():
    rng = random.Random(0)
    batch = random_hypersurfaces(rng, 10)
    assert len(batch) == 10
    for inst, b in batch:
        assert inst.dim in (1, 2)
        assert inst.degree in (2, 3, 4)
        assert 2 <= b <= 3
        for q in (3, 7):
            X = inst.variety(q)
            # the lead term survives every odd prime
            assert max(f.total_degree() for f in X.equations) == inst.degree


def test_random_hypersurfaces_deterministic():
    a = random_hypersurfaces(random.Random(42), 5)
    b = random_hypersurfaces(random.Random(42), 5)
    assert [i.equations for i, _ in a] == [i.equations for i, _ in b]
