from __future__ import annotations

import json
from math import gcd, lcm, prod

import pytest

import gtpairs.gbar as gbar_module
from gtpairs import cli, permcore
from gtpairs.atlas import construct
from gtpairs.gbar import (
    DELTA,
    THETA,
    EndoImages,
    GbarError,
    build_gbar,
    double_coset_survey,
    evaluate_endo,
    gt_full_order,
)
from gtpairs.pairs import PairLookupError
from gtpairs.permcore import (
    BaseImageError,
    EnumerationCapError,
    compose,
    generates,
    identity_perm,
    inverse,
    perm_order,
)
from group_oracles import (
    brute_double_coset_survey,
    conjugate,
    dihedral_closed_form,
    direct_product,
    gt1_order,
    model_group,
    model_perm,
    tuple_model_table,
)

_CACHE: dict = {}


def _gbar(spec: str):
    """Build the model group for a spec once and reuse it."""
    if spec not in _CACHE:
        _CACHE[spec] = model_group(construct(spec))
    return _CACHE[spec]


def _rep_perm(gbar, word: tuple[int, ...]):
    """The model element reached by word from the identity, as a permutation."""
    e = 0
    for s in word:
        e = gbar.table.gen_cols[s][e]
    return model_perm(gbar, e)


def _survey_rows(gbar, k: int = 1) -> list[tuple]:
    return [
        (_rep_perm(gbar, r.word), r.word, r.coset_size)
        + (r.generates_model, r.theta_ok, r.delta_ok)
        for r in double_coset_survey(gbar, k)
    ]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_model_orders_known_groups() -> None:
    cases = [("cyclic:5", 25, 6), ("dihedral:5", 500, 3), ("dihedral:3", 108, 3)]
    for spec, order, r in cases:
        gbar = _gbar(spec)
        assert gbar.order == order
        assert gbar.r == r


def test_dihedral_model_order_formula() -> None:
    for n in [3, 5, 7]:
        gbar = _gbar(f"dihedral:{n}")
        assert gbar.order == 4 * n**3
        assert gbar.r == 3
    for n in [4, 6, 8]:
        gbar = _gbar(f"dihedral:{n}")
        assert gbar.order == 4 * (n // 2) ** 3
        assert gbar.r == 3


def test_window_projections_cover_base() -> None:
    gbar = _gbar("dihedral:5")
    d = gbar.base.degree
    for w in range(gbar.r):
        xs = tuple(gbar.x[w * d + i] - w * d for i in range(d))
        ys = tuple(gbar.y[w * d + i] - w * d for i in range(d))
        assert generates([xs, ys], d, gbar.base.order)


@pytest.mark.parametrize(
    "spec", ["dihedral:7", "cyclic:12", "quaternion8", "alternating:4"]
)
def test_model_windows_are_the_outer_orbit_reps(spec) -> None:
    """Window w of the generators is the pair class orbit_reps[w]; quaternion8
    has |Out| = 6, so most classes are no window."""
    st, gbar = cli.model_stages(construct(spec), threads=1)
    table = gbar.table
    x_id, y_id = table.gen_cols[0][0], table.gen_cols[1][0]
    windows = list(zip(gbar.window_ids(x_id), gbar.window_ids(y_id)))
    assert windows == [st.pcset.reps[o] for o in st.ind.orbit_reps]
    assert gbar.r * len(st.ind.out_perms) == st.pcset.ell


def test_model_order_divides_power() -> None:
    for spec in ["cyclic:5", "dihedral:3", "dihedral:5", "quaternion8"]:
        gbar = _gbar(spec)
        assert gbar.base.order**gbar.r % gbar.order == 0


def _generator_ids(gbar) -> tuple[int, int]:
    cols = gbar.table.gen_cols
    return cols[0][0], cols[1][0]


def test_word_reevaluation_reproduces_elements() -> None:
    """Substituting the generators for themselves must return each element."""
    for spec in ["cyclic:5", "dihedral:3"]:
        gbar = _gbar(spec)
        ident = EndoImages(x_image=(0,), y_image=(1,))
        for i in range(gbar.order):
            assert evaluate_endo(gbar, ident, i) == i


def test_theta_swaps_generators() -> None:
    gbar = _gbar("dihedral:5")
    x, y = _generator_ids(gbar)
    assert (model_perm(gbar, x), model_perm(gbar, y)) == (gbar.x, gbar.y)
    assert evaluate_endo(gbar, THETA, x) == y
    assert evaluate_endo(gbar, THETA, y) == x


def test_delta_on_generators() -> None:
    gbar = _gbar("dihedral:5")
    x, y = _generator_ids(gbar)
    expected = compose(inverse(gbar.y), inverse(gbar.x))
    assert model_perm(gbar, evaluate_endo(gbar, DELTA, x)) == expected
    assert evaluate_endo(gbar, DELTA, y) == y


def test_delta_squared_is_conjugation() -> None:
    """Applying the product-inverting map twice conjugates x by y."""
    for spec in ["dihedral:3", "dihedral:5", "quaternion8"]:
        gbar = _gbar(spec)
        x, _ = _generator_ids(gbar)
        twice = evaluate_endo(gbar, DELTA, evaluate_endo(gbar, DELTA, x))
        assert model_perm(gbar, twice) == conjugate(gbar.x, gbar.y)


TUPLE_MODEL_SPECS = [f"dihedral:{n}" for n in range(3, 10)] + [
    "alternating:4",
    "quaternion8",
    "cyclic:6",
    "cyclic:12",
]


@pytest.mark.parametrize("spec", TUPLE_MODEL_SPECS)
def test_model_table_matches_tuple_model(spec) -> None:
    """The base-image table has the permutation table's BFS: the same tree,
    columns and, rebuilt as permutations, the same element at every id."""
    gbar = _gbar(spec)
    table, tuples = gbar.table, tuple_model_table(gbar)
    assert table.parent == tuples.parent
    assert table.letter == tuples.letter
    assert table.gen_cols == tuples.gen_cols
    assert [model_perm(gbar, i) for i in range(table.order)] == tuples.elements


def test_tuple_only_methods_refuse_base_images() -> None:
    table = _gbar("dihedral:3").table
    calls = [
        ("mul", lambda: table.mul(1, 2)),
        ("inverse_ids", lambda: table.inverse_ids),
        ("inverse_ids", lambda: table.inverse_id(1)),
        ("inverse_ids", lambda: table.right_column(1)),
        ("inverse_ids", lambda: table.conjugation_column(1)),
    ]
    for name, call in calls:
        with pytest.raises(BaseImageError, match=f"^{name} needs permutations"):
            call()


def test_double_cosets_partition_model() -> None:
    for spec in ["dihedral:3", "dihedral:4", "cyclic:6"]:
        gbar = _gbar(spec)
        reps = double_coset_survey(gbar)
        assert sum(rep.coset_size for rep in reps) == gbar.order


def test_survey_sorted_by_word() -> None:
    gbar = _gbar("dihedral:3")
    reps = double_coset_survey(gbar)
    keys = [(len(rep.word), rep.word) for rep in reps]
    assert keys == sorted(keys)
    assert reps[0].word == ()
    assert _rep_perm(gbar, reps[0].word) == identity_perm(len(gbar.x))
    assert reps[0].survives


def test_survey_flags_failing_cosets() -> None:
    reps = double_coset_survey(_gbar("dihedral:3"))
    assert any(not rep.survives for rep in reps)
    for rep in reps:
        if rep.survives:
            assert rep.generates_model and rep.theta_ok and rep.delta_ok


def test_survivor_counts_dihedral_subset() -> None:
    for n in [3, 4, 5, 6, 8, 12]:
        count, survivors = gt1_order(construct(f"dihedral:{n}"))
        assert count == dihedral_closed_form(n)
        assert len(survivors) == count
        assert survivors[0].word == ()


def test_quaternion_count_trivial() -> None:
    count, survivors = gt1_order(construct("quaternion8"))
    assert count == 1
    gbar = _gbar("quaternion8")
    assert _rep_perm(gbar, survivors[0].word) == identity_perm(len(gbar.x))


def test_two_group_counts_are_powers_of_two() -> None:
    for spec in ["dihedral:4", "dihedral:8", "quaternion8"]:
        count, _ = gt1_order(construct(spec))
        assert count & (count - 1) == 0


def test_cyclic_full_counts_subset() -> None:
    for n in [2, 3, 4, 6, 8, 12]:
        group = construct(f"cyclic:{n}")
        assert gt_full_order(model_group(group)) == _phi(n)
        count, _ = gt1_order(group)
        assert count == 1


def test_trivial_group_counts() -> None:
    group = construct("cyclic:1")
    count, _ = gt1_order(group)
    assert count == 1
    assert gt_full_order(model_group(group)) == 1


def test_coprime_product_multiplicative() -> None:
    group = direct_product(construct("cyclic:3"), construct("dihedral:4"))
    gbar = model_group(group)
    assert gbar.order == 288
    assert _survey_rows(gbar) == brute_double_coset_survey(gbar)
    count, _ = gt1_order(group)
    assert count == 1


def test_closed_form_values() -> None:
    assert dihedral_closed_form(9) == 2
    assert dihedral_closed_form(12) == 1
    assert dihedral_closed_form(10) == 2
    assert [dihedral_closed_form(n) for n in range(3, 16)] == [
        2, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2,
    ]
    with pytest.raises(ValueError):
        dihedral_closed_form(2)


def test_model_cap_error_names_flag() -> None:
    with pytest.raises(EnumerationCapError) as err:
        model_group(construct("dihedral:9"), cap=100)
    assert "--cap" in str(err.value)


ORACLE_SPECS = [f"dihedral:{n}" for n in range(3, 10)] + [
    "dihedral:12",
    "alternating:4",
    "quaternion8",
    "symmetric:3",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS + ["dihedral:15", "cyclic:12"])
def test_survey_matches_brute_oracle(spec) -> None:
    gbar = _gbar(spec)
    assert _survey_rows(gbar) == brute_double_coset_survey(gbar)


@pytest.mark.parametrize("spec, tests, cosets", [
    ("dihedral:9", 6, 9), ("dihedral:15", 8, 15), ("alternating:4", 9, 16),
])
def test_survey_tests_generation_only_where_every_window_generates(
    spec, tests, cosets, monkeypatch
) -> None:
    """A window pair that fails to generate G settles a coset as "no", and
    window pairs in r distinct outer orbits settle it as "yes": on these
    models the windows settle every coset, with no degree r*d chain."""
    gbar = _gbar(spec)
    calls = []

    def counting(*args):
        calls.append(args)
        return generates(*args)

    monkeypatch.setattr(gbar_module, "generates", counting)
    reps = double_coset_survey(gbar)
    assert len(reps) == cosets
    assert len(calls) == 0
    assert sum(rep.generates_model for rep in reps) == tests


def _two_window_model(spec: str):
    """The model on two outer-orbit representatives of one block, with the
    whole group's outer-orbit labels."""
    st = cli.pair_stages(construct(spec))
    reps, block_of, labels = st.ind.orbit_reps, st.block_of, [0] * st.pcset.ell
    for w, o in enumerate(reps):
        for a in st.ind.out_perms:
            labels[a[o]] = w
    o1 = reps[0]
    o2 = next(o for o in reps[1:] if block_of[o] == block_of[o1])
    return build_gbar(st.pcset, [o1, o2], labels)


@pytest.mark.parametrize("spec, shared", [("psl2:5", 2), ("psl2:7", 3)])
def test_windows_sharing_an_orbit_never_generate_the_model(spec, shared) -> None:
    """On a model whose two windows hold pairs of one block, some cosets
    have both window pairs generating G in one outer orbit.  Their survey
    flag is "no", and every flag is the brute oracle's."""
    gbar = _two_window_model(spec)
    reps = double_coset_survey(gbar)
    assert _survey_rows(gbar) == brute_double_coset_survey(gbar)
    tuples, locate = tuple_model_table(gbar), gbar.pcset.locate
    y_windows = gbar.window_ids(tuples.index[gbar.y])
    found = 0
    for rep in reps:
        xf = conjugate(gbar.x, _rep_perm(gbar, rep.word))
        windows = zip(gbar.window_ids(tuples.index[xf]), y_windows)
        try:
            orbits = {gbar.orbit_of[locate(g, h)] for g, h in windows}
        except PairLookupError:
            continue
        if len(orbits) == 1:
            found += 1
            assert not rep.generates_model
    assert found == shared


@pytest.mark.parametrize("spec", ["dihedral:3", "symmetric:3", "cyclic:5"])
def test_windows_in_every_outer_orbit_generate_the_model(spec) -> None:
    """For every pair (a, b) of M: when each window pair generates G and
    the r window pairs lie in r distinct outer orbits, <a, b> = M by the
    degree r*d generation test."""
    gbar = _gbar(spec)
    windows = [gbar.window_ids(i) for i in range(gbar.order)]
    perms = [model_perm(gbar, i) for i in range(gbar.order)]
    locate, orbit_of = gbar.pcset.locate, gbar.orbit_of
    covering = 0
    for a in range(gbar.order):
        for b in range(gbar.order):
            try:
                pairs = zip(windows[a], windows[b])
                orbits = {orbit_of[locate(g, h)] for g, h in pairs}
            except PairLookupError:
                continue
            if len(orbits) == gbar.r:
                covering += 1
                assert generates([perms[a], perms[b]], len(gbar.x), gbar.order)
    assert covering


@pytest.mark.parametrize(
    "spec",
    ORACLE_SPECS
    + ["dihedral:15", pytest.param("symmetric:4", marks=pytest.mark.extended)],
)
def test_window_check_keeps_every_generating_coset(spec) -> None:
    """Each representative's flag is the degree r*d generation test of
    (x^f, y): the window check never turns a generating coset into "no"."""
    gbar = _gbar(spec)
    for rep in double_coset_survey(gbar):
        xf = conjugate(gbar.x, _rep_perm(gbar, rep.word))
        assert rep.generates_model == generates([xf, gbar.y], len(gbar.x), gbar.order)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_one_partition_serves_every_coprime_power(n, monkeypatch) -> None:
    gbar = model_group(construct(f"cyclic:{n}"))
    order = perm_order(gbar.x)
    for k in range(1, order + 1):
        if gcd(k, order) == 1:
            assert _survey_rows(gbar, k) == brute_double_coset_survey(gbar, k)
    builds = []
    build = gbar_module._double_cosets
    monkeypatch.setattr(
        gbar_module, "_double_cosets", lambda g: builds.append(g) or build(g)
    )
    assert gt_full_order(gbar) == _phi(n)
    assert builds == [gbar]


@pytest.mark.parametrize("spec", ["dihedral:4", "dihedral:6"])
def test_coprime_powers_match_oracle_and_others_are_refused(spec) -> None:
    """Every power below lcm(ord x, ord y): a coprime one is surveyed as the
    oracle does, any other raises ValueError."""
    gbar = model_group(construct(spec))
    nx, ny = perm_order(gbar.x), perm_order(gbar.y)
    for k in range(1, lcm(nx, ny)):
        if gcd(k, nx) == 1 and gcd(k, ny) == 1:
            assert _survey_rows(gbar, k) == brute_double_coset_survey(gbar, k)
        else:
            with pytest.raises(ValueError, match=f"power {k} is not prime"):
                double_coset_survey(gbar, k)


@pytest.mark.parametrize("spec", ["cyclic:7", "cyclic:9", "cyclic:12", "dihedral:5"])
def test_gt_full_order_equals_uncached_sum(spec) -> None:
    """gt_full_order's shared partition gives the sum of surveys that each
    build their own."""
    gbar = model_group(construct(spec))
    n = perm_order(gbar.x)
    total = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            total += sum(1 for rep in double_coset_survey(gbar, k) if rep.survives)
    assert gt_full_order(gbar) == total


class _CountingIndex(dict):
    """A model table index that counts its get calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.mark.parametrize("spec, path", [
    ("dihedral:3", "product"), ("dihedral:7", "product"), ("dihedral:8", "product"),
    ("alternating:4", "product"), ("cyclic:6", "scan"), ("cyclic:7", "scan"),
])
def test_window_centralizer_matches_brute_commutation(spec, path, monkeypatch) -> None:
    # the product of the window centralizers is looked up in the model index
    # when it is smaller than the model; otherwise the model table is scanned
    gbar = _gbar(spec)
    base = gbar.base
    perms = [model_perm(gbar, i) for i in range(gbar.order)]
    for a in (gbar.table.gen_cols[0][0], gbar.table.gen_cols[1][0]):
        pa = perms[a]
        want = [i for i, p in enumerate(perms) if compose(p, pa) == compose(pa, p)]
        candidates = prod(
            sum(compose(e, base.elements[b]) == compose(base.elements[b], e)
                for e in base.elements)
            for b in gbar.window_ids(a)
        )
        index = _CountingIndex(gbar.table.index)
        monkeypatch.setattr(gbar.table, "index", index)
        assert gbar_module._window_centralizer(gbar, a) == want
        monkeypatch.undo()
        assert (candidates < gbar.order) == (path == "product")
        assert index.gets == (candidates if path == "product" else 0)


def test_left_coset_check_names_the_check(monkeypatch) -> None:
    """A centralizer listing the identity twice makes a left coset flip fewer
    flags than it has elements."""
    true_centralizer = gbar_module._window_centralizer

    def with_identity_twice(gbar, a):
        return true_centralizer(gbar, a) + [0]

    monkeypatch.setattr(gbar_module, "_window_centralizer", with_identity_twice)
    with pytest.raises(GbarError, match="left coset check failed"):
        double_coset_survey(model_group(construct("dihedral:3")))


def test_window_check_names_the_check(monkeypatch) -> None:
    """A window pair that does not locate to its own pair class fails
    build_gbar's window check, by window."""
    st = cli.pair_stages(construct("dihedral:3"))
    monkeypatch.setattr(st.pcset, "locate", lambda g, h: 0)
    with pytest.raises(GbarError, match="window 1 projection fails to cover"):
        build_gbar(st.pcset, st.ind.orbit_reps, [0] * st.pcset.ell)


@pytest.mark.parametrize("spec, packed", [
    ("cyclic:12", False), ("cyclic:8", True), ("alternating:4", True),
    ("dihedral:7", True), ("quaternion8", True), ("cyclic:1", True),
])
def test_gt1_is_the_same_in_either_form(spec, packed, tmp_path, monkeypatch) -> None:
    """The model table is packed up to window degree 256: cyclic:12's has
    24 * 12 = 288 window points, so it holds tuples, and cyclic:8's has 96.
    The gt1 report with packing is the one with tuples everywhere."""
    assert model_group(construct(spec)).table.packed == packed
    reports = []
    for limit in (permcore.PACKED_DEGREE, 0):
        monkeypatch.setattr(permcore, "PACKED_DEGREE", limit)
        path = tmp_path / f"{limit}.json"
        assert cli.run(["gt1", spec, "--threads", "1", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        del report["timings"]
        reports.append(report)
    assert not model_group(construct(spec)).table.packed
    assert reports[0] == reports[1]
    if spec.startswith("cyclic:"):
        assert reports[0]["count"] == 1
