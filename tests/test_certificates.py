"""Records the library derives without its constructors' re-check.

``homology._built`` fills a record's fields in order and runs no
``__post_init__``.  The library calls it only where every field is a copy,
or an exact-int function, of fields already checked.  These certificates
rebuild each such record through its public constructor, records inside it
first, and require an equal object with an equal hash and the same field
types: a derived record holds nothing its constructor would refuse or
normalize.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import pytest

from lbkit import homology
from lbkit.covers import cyclic_cover_link, double_cover_diagram
from lbkit.diagrams import (
    BLUE, RED, AnnularComponent, AnnularLink, BicoloredLink, BraidWord,
    ColoredTangle, DiagramError, Runs, braid_closure, half_twist_tangle,
    normalize_to_writhe, reverse_mirror,
)
from lbkit.homology import (
    AbelianGroup, IntMatrix, _built, boundary_h1, cokernel, h1,
    smith_normal_form,
)
from lbkit.homotopy import (
    CrossedClass, Cycle, FingerMove, HomotopyTrace, WhitneyMove, classify,
    concat, connecting_homotopy, crossed_class,
)
from lbkit.kirby import (
    KirbyDiagram, TwoHandle, build_diagram, double, ensure_attaching,
    handle_slide,
)
from lbkit.obstruction import ConcordanceSlice, model_slice
from lbkit.serialize import dumps, kirby_to_obj, load_diagram

DEGREES = (1, 2, 3, 8, 32, 128)


def certify(x, done=None):
    """``x`` rebuilt through the public constructors, after checking that
    the rebuilt object equals ``x`` and hashes alike.  ``done`` maps the id of each record
    already rebuilt to the record and its rebuild."""
    again = rebuild(x, {} if done is None else done)
    assert type(again) is type(x) and again == x and hash(again) == hash(x), type(x)
    return again


def rebuild(x, done):
    """``x`` rebuilt through the public constructors, records inside it
    first, with the type of every field checked against ``x``'s."""
    if id(x) in done:
        return done[id(x)][1]
    if type(x) is tuple:
        return tuple(rebuild(v, done) if nested(v) else v for v in x)
    names = type(x).__dataclass_fields__
    old = [getattr(x, n) for n in names]
    again = type(x)(*(rebuild(v, done) if nested(v) else v for v in old))
    assert list(map(type, map(getattr, repeat(again), names))) == list(map(type, old))
    done[id(x)] = x, again
    return again


def nested(v):
    """Whether ``v`` is a record, or a tuple holding records: a row of
    scalars is a leaf, whose type the record holding it checks."""
    if type(v) is tuple:
        return bool(v) and nested(v[0])
    return hasattr(type(v), "__dataclass_fields__")


@pytest.fixture
def certified_cokernels(monkeypatch):
    """Certify the matrix ``h1`` and ``boundary_h1`` hand to ``cokernel``,
    and the group it returns."""
    def spy(m, cokernel=homology.cokernel):
        return certify(cokernel(certify(m)))
    monkeypatch.setattr(homology, "cokernel", spy)


def groups(d):
    h1(d)
    if not (d.three_handles or d.four_handles):
        boundary_h1(d)


def test_family_grid(certified_cokernels):
    for p in range(-40, 41):
        for q in range(-40, 41):
            d, done = build_diagram(p, q), {}
            certify(d, done)
            groups(d)
            for eps in (1, -1):
                groups(certify(handle_slide(d, "lower", "dual", eps), done))
            groups(certify(double(d), done))
            cover = double_cover_diagram(d)
            certify(cover, done)
            groups(cover.total)
            # the covering word's letter table is the one a fresh word walks
            link = cover.total.attaching
            assert done[id(link)][1].word._closure == link.word._closure


def test_random_slide_sequences(rng, certified_cokernels):
    for _ in range(300):
        d = build_diagram(rng.randint(-40, 40), rng.randint(-40, 40))
        ids = [h.id for h in d.two_handles]
        for _ in range(rng.randint(1, 6)):
            a, b = rng.sample(ids, 2)
            d = certify(handle_slide(d, a, b, rng.choice((1, -1))))
            groups(d)
        groups(certify(double(d)))


def test_renamed_family_covers():
    # ensure_attaching rebuilds the attaching link from a loaded diagram's ids
    obj = kirby_to_obj(build_diagram(5, -3))
    rename = {"dot": "axis", "upper": "u.b", "lower": "l", "dual": "l.m"}
    obj["dotted"] = [rename[x] for x in obj["dotted"]]
    for h in obj["two_handles"]:
        h["id"] = rename[h["id"]]
    d = load_diagram(dumps(obj))
    certify(ensure_attaching(d))
    certify(double_cover_diagram(d))
    with pytest.raises(DiagramError, match="handle ids must be unique"):
        double(d)  # the meridian of "l" would be "l.m", the dual's id


def random_link(rng):
    """A normalized braid closure on 1-5 strands, with a split unknot
    half the time."""
    strands = rng.randint(1, 5)
    letters = tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 6) if strands > 1 else 0))
    word = BraidWord(strands, letters)
    framings = [rng.randint(-5, 5) for _ in word.cycles()]
    closure = braid_closure(word, framings=framings)
    split = ()
    if rng.random() < 0.5:
        split = (AnnularComponent("u", frozenset(), None, rng.randint(-5, 5)),)
    return normalize_to_writhe(AnnularLink(word, closure.components, split))


def test_cyclic_covers(rng):
    links = [build_diagram(p, q).attaching for p in (-40, -3, 0, 7) for q in (-9, 0, 2)]
    links += [random_link(rng) for _ in range(60)]
    for link in links:
        for m in DEGREES:
            cover = cyclic_cover_link(link, m)
            again = certify(cover)
            assert again.total.word._closure == cover.total.word._closure


def test_braid_word_powers(rng):
    # power builds w^m unchecked: it must equal the public construction
    words = [build_diagram(3, 2).attaching.word, BraidWord(1), BraidWord(4)]
    words += [random_link(rng).word for _ in range(30)]
    for w in words:
        for m in range(129):
            p = w.power(m)
            again = certify(p)
            assert again == BraidWord(w.strands, w.letters * m)
            assert again._closure == p._closure


def test_smith_forms_and_cokernels(rng):
    for _ in range(2000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice((1, 3, 30, 10 ** 12))
        m = IntMatrix(rows, cols, tuple(
            tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)))
        for part in smith_normal_form(m):
            certify(part)
        certify(cokernel(m))


def test_builder_refuses_a_wrong_value_count():
    assert _built(TwoHandle, "x", 1, (2,)) == TwoHandle("x", 1, (2,))
    assert _built(AbelianGroup, 0, (2,)) == AbelianGroup(0, (2,))
    for values in (("x", 1), ("x", 1, (2,), 0), ()):
        with pytest.raises(TypeError, match="TwoHandle has 3 fields"):
            _built(TwoHandle, *values)
    with pytest.raises(TypeError, match="KirbyDiagram has 6 fields, got 5"):
        _built(KirbyDiagram, ("dot",), (), ((0,),), 0, 0)


def test_builder_is_generated_once_per_class(monkeypatch):
    # _built generates one builder per record class on first use; the record
    # keeps an instance dict, so a cached property still caches on it
    generated = []

    def spy(source, scope):
        generated.append(source)
        exec(source, scope)

    monkeypatch.setattr(homology, "exec", spy, raising=False)

    @dataclass(frozen=True)
    class Pair:
        a: int
        b: tuple

        @cached_property
        def total(self):
            return self.a + sum(self.b)

    first, second = _built(Pair, 1, (2,)), _built(Pair, 3, ())
    assert len(generated) == 1
    assert (first, second) == (Pair(1, (2,)), Pair(3, ()))
    assert hash(first) == hash(Pair(1, (2,)))
    assert first.total == 3 and vars(first) == {"a": 1, "b": (2,), "total": 3}
    _built(TwoHandle, "x", 1, (2,))
    generated.clear()
    _built(TwoHandle, "y", 2, (0,))
    assert generated == []


def test_builder_arity_error_is_the_same_on_first_use():
    @dataclass(frozen=True)
    class Fresh:
        a: int
        b: int

    with pytest.raises(TypeError, match=r"^Fresh has 2 fields, got 1 values$"):
        _built(Fresh, 1)
    assert _built(Fresh, 1, 2) == Fresh(1, 2)
    with pytest.raises(TypeError, match=r"^TwoHandle has 3 fields, got 2 values$"):
        _built(TwoHandle, "x", 1)


def test_derived_values_past_the_checks_are_refused():
    # the values the derived records are computed from are checked exactly
    d = build_diagram(1, 2)
    for eps in (1.0, True):
        with pytest.raises(DiagramError, match="slide sign must be int"):
            handle_slide(d, "lower", "dual", eps)
    for m in (2.0, True):
        with pytest.raises(DiagramError, match="cover degree must be int"):
            cyclic_cover_link(d.attaching, m)
    clash = load_diagram(dumps({**kirby_to_obj(d), "dotted": ["upper.r"]}))
    with pytest.raises(DiagramError, match="handle ids must be unique"):
        double_cover_diagram(clash)


@pytest.mark.parametrize("colors", ((None, None), (RED, BLUE)))
def test_twist_tangles_and_their_reverse_mirrors(colors):
    for n in range(-300, 301):
        t = half_twist_tangle(n, colors)
        certify(t)
        certify(reverse_mirror(t))
        certify(reverse_mirror(reverse_mirror(t)))


def test_model_slices(rng):
    pairs = [(rng.randint(-300, 300), rng.randint(-300, 300)) for _ in range(400)]
    pairs += [(i, i + d) for i in (-7, 0, 4) for d in range(-6, 7)]
    assert {(i - j) % 2 for i, j in pairs} == {0, 1}
    for i, j in pairs:
        certify(model_slice(i, j))


def test_connecting_homotopies_and_their_classes():
    for i in (-31, 0, 12):
        for d in range(-400, 401, 2):
            t = connecting_homotopy(i, i + d)
            certify(t)
            certify(crossed_class(t))


def random_trace(rng, group, elements):
    """A trace over ``group`` from its checking constructor: a few runs of
    moves and cycles on ``elements``, valid or not.  (``certify`` hashes, and
    a hash expands the runs, so the counts stay small.)"""
    def runs(make):
        return Runs([(tuple(make() for _ in range(rng.randint(1, 3))), rng.randint(1, 5))
                     for _ in range(rng.randint(0, 3))])
    move = lambda: rng.choice((FingerMove, WhitneyMove))(rng.choice(elements))
    cycle = lambda: Cycle(rng.random() < 0.7, rng.choice(elements),
                          rng.randint(0, 2), rng.randint(0, 2))
    return HomotopyTrace(group, runs(move), runs(cycle))


@pytest.mark.parametrize("group, elements", [
    (AbelianGroup(0, (2,)), ((0,), (1,), (3,), (-1,))),
    (AbelianGroup(0, (2, 4)), ((0, 0), (1, 0), (0, 2), (1, 2), (3, -2), (0, 1), (1, 3))),
])
def test_concatenations_and_their_classes(rng, group, elements):
    # an equal group in a separate object joins as the same group
    twin = AbelianGroup(group.free_rank, group.invariant_factors)
    traces = [random_trace(rng, rng.choice((group, twin)), elements) for _ in range(40)]
    for _ in range(300):
        a, b = rng.choice(traces), rng.choice(traces)
        joined = concat(a, b)
        certify(joined)
        certify(crossed_class(joined))
        traces.append(joined)
    for t in traces[:40]:
        certify(crossed_class(t))


CHECKED = (ColoredTangle, ConcordanceSlice, HomotopyTrace, CrossedClass, BicoloredLink)


def test_classify_runs_only_the_global_count_check(monkeypatch):
    """After a warm-up call fills the shared-part caches, an even pair runs
    one constructor check of these records: the merged link's, which keeps
    the global count independent of the per-term one."""
    assert classify(-30, 50).smoothly_isotopic
    made = Counter()
    for cls in CHECKED:
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            made[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    assert classify(-30, 50).smoothly_isotopic
    assert made == Counter({"BicoloredLink": 1})
    # the wrappers do count each listed record's checking constructor
    z2 = AbelianGroup(0, (2,))
    ConcordanceSlice(*[ColoredTangle()] * 6)
    HomotopyTrace(z2)
    CrossedClass(z2, (((1,), 0),))
    assert made == Counter(cls.__name__ for cls in CHECKED)
