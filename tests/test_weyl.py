"""Root systems, signed permutations, reduced words."""

from __future__ import annotations

import itertools

import pytest

from hcdirac.weyl import Root, RootSystemCtx, SignedPerm, reflection_perm


def test_positive_root_counts():
    for n in range(1, 6):
        assert len(RootSystemCtx("A", n).positive_roots) == n * (n - 1) // 2
        assert len(RootSystemCtx("B", n).positive_roots) == n * n
        assert len(RootSystemCtx("D", n).positive_roots) == n * (n - 1)


def test_positive_root_order_examples():
    assert [str(r) for r in RootSystemCtx("A", 2).positive_roots] == ["e1-e2"]
    assert [str(r) for r in RootSystemCtx("B", 2).positive_roots] == [
        "e1-e2",
        "e1+e2",
        "e1",
        "e2",
    ]
    assert [str(r) for r in RootSystemCtx("D", 2).positive_roots] == ["e1-e2", "e1+e2"]


def test_root_parse_and_lengths():
    assert str(Root("diff", 1, 2)) == "e1-e2"
    assert str(Root("sum", 1, 3)) == "e1+e3"
    assert str(Root("short", 2)) == "e2"
    assert Root("diff", 1, 2).length_sq() == 2
    assert Root("short", 1).length_sq() == 1
    with pytest.raises(ValueError):
        Root("diff", 2, 1)


def test_reflections():
    assert reflection_perm(Root("diff", 1, 2), 3).images == (2, 1, 3)
    assert reflection_perm(Root("sum", 1, 2), 2).images == (-2, -1)
    assert reflection_perm(Root("short", 2), 2).images == (1, -2)
    ctx = RootSystemCtx("B", 3)
    for root in ctx.positive_roots:
        s = ctx.reflection(root)
        assert (s * s).is_identity()


def test_reflection_rejects_foreign_root():
    with pytest.raises(ValueError):
        RootSystemCtx("A", 3).reflection(Root("short", 1))


def test_act_on_root_examples():
    s12 = RootSystemCtx("A", 3).simple_reflections[0]
    root, sign = s12.act_root(Root("diff", 1, 2))
    assert (root, sign) == (Root("diff", 1, 2), -1)
    root, sign = SignedPerm.identity(3).act_root(Root("diff", 1, 3))
    assert (root, sign) == (Root("diff", 1, 3), 1)
    root, sign = s12.act_root(Root("diff", 2, 3))
    assert (root, sign) == (Root("diff", 1, 3), 1)


def test_group_ops():
    s12 = SignedPerm((2, 1))
    assert (s12 * s12).is_identity()
    sn = SignedPerm((1, -2))
    assert sn.image(2) == -2
    assert sn.image(-2) == 2
    a = SignedPerm((2, 1, 3))
    b = SignedPerm((1, 3, 2))
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_window_roundtrip():
    w = SignedPerm((2, -1, 3))
    assert str(w) == "[2,-1,3]"
    assert SignedPerm(w.images) == w
    with pytest.raises(ValueError):
        SignedPerm((1, 1))


def _compose(u, v):
    """Window of u * v, composed by hand: (u v)(i) = u(v(i)), u(-j) = -u(j)."""
    return tuple(u[j - 1] if j > 0 else -u[-j - 1] for j in v)


def test_signed_perm_tuple_semantics():
    for window in ((1, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            SignedPerm(window)
    a, b = SignedPerm((2, -1, 3)), SignedPerm((2, -1, 3))
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    assert str(a) == "[2,-1,3]"
    assert repr(a) == "SignedPerm(images=(2, -1, 3))"
    assert a.images == (2, -1, 3) and type(a.images) is tuple
    for ctx in (RootSystemCtx("B", 3), RootSystemCtx("A", 4)):
        elements = ctx.elements()
        identity = tuple(range(1, ctx.n + 1))
        for u in elements:
            inv = u.inverse()
            assert type(inv) is SignedPerm and _compose(u.images, inv.images) == identity
            for v in elements:
                uv = u * v
                assert type(uv) is SignedPerm and uv.images == _compose(u.images, v.images)


def test_reduced_word_identity_and_examples():
    ctx = RootSystemCtx("A", 3)
    assert ctx.reduced_word(SignedPerm.identity(3)) == []
    s13 = reflection_perm(Root("diff", 1, 3), 3)
    word = ctx.reduced_word(s13)
    assert len(word) == 3
    ctxb = RootSystemCtx("B", 2)
    sn = reflection_perm(Root("short", 2), 2)
    assert ctxb.reduced_word(sn) == [1]


def test_reduced_words_reconstruct():
    for typ, n in (("A", 3), ("B", 2), ("B", 3), ("D", 3)):
        ctx = RootSystemCtx(typ, n)
        simples = ctx.simple_reflections
        for w in ctx.elements():
            prod = SignedPerm.identity(n)
            for idx in ctx.reduced_word(w):
                prod = prod * simples[idx]
            assert prod == w


@pytest.mark.parametrize("typ, n", [("A", 1), ("A", 4), ("B", 1), ("B", 4), ("D", 2), ("D", 4)])
def test_left_descent_is_the_first_letter_of_the_reduced_word(typ, n):
    ctx = RootSystemCtx(typ, n)
    for w in ctx.elements():
        word = ctx.reduced_word(w)
        assert ctx.left_descent(w) == (word[0] if word else None)


def test_group_orders():
    import math

    assert len(RootSystemCtx("A", 4).elements()) == math.factorial(4)
    assert len(RootSystemCtx("B", 3).elements()) == 8 * math.factorial(3)
    assert len(RootSystemCtx("D", 3).elements()) == 4 * math.factorial(3)
    assert len(RootSystemCtx("D", 1).elements()) == 1


def test_length_counts_sign_flips():
    # l(w) = #{alpha > 0 : w(alpha) < 0}, checked against BFS length.
    for typ, n in (("A", 3), ("B", 2), ("B", 3), ("D", 3)):
        ctx = RootSystemCtx(typ, n)
        for w in ctx.elements():
            flips = sum(1 for r in ctx.positive_roots if w.act_root(r)[1] < 0)
            assert flips == len(ctx.reduced_word(w))


def test_type_d_closure():
    ctx = RootSystemCtx("D", 3)
    for w in ctx.elements():
        assert w.neg_count() % 2 == 0
    for a, b in itertools.islice(itertools.product(ctx.elements(), repeat=2), 200):
        assert (a * b).neg_count() % 2 == 0


def test_membership():
    ctx = RootSystemCtx("D", 2)
    with pytest.raises(ValueError):
        ctx.reduced_word(SignedPerm((1, -2)))
    assert not RootSystemCtx("A", 2).is_member(SignedPerm((-1, 2)))
