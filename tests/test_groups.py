import random

import pytest

from gammasym.groups import GroupElement, enumerate_group, from_label, identity, product


def test_klein_labels():
    assert [g.label for g in enumerate_group(2)] == ["e", "a", "b", "c"]


def test_klein_product_table():
    e, a, b, c = enumerate_group(2)
    assert a * b == c
    assert b * c == a
    assert a * c == b
    assert a * a == e
    assert e * c == c


def test_identity_and_involution():
    for rank in (1, 2, 3, 4):
        e = identity(rank)
        for g in enumerate_group(rank):
            assert product(g, g) == e
            assert product(g, e) == g


def test_enumerate_size_and_distinct():
    for rank in (1, 2, 3, 5):
        elems = enumerate_group(rank)
        assert len(elems) == 2**rank
        assert len(set(elems)) == 2**rank
        assert elems[0].is_identity()


def test_commutativity_random():
    rng = random.Random(0)
    for _ in range(50):
        rank = rng.randint(1, 5)
        x = GroupElement(rank, rng.randrange(2**rank))
        y = GroupElement(rank, rng.randrange(2**rank))
        assert product(x, y) == product(y, x)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        product(GroupElement(2, 1), GroupElement(3, 1))


def test_bit_labels_above_rank_two():
    g = GroupElement(3, 5)
    assert g.label == "101"
    assert from_label(3, "101") == g


def test_from_label_roundtrip_klein():
    for g in enumerate_group(2):
        assert from_label(2, g.label) == g


def test_bad_construction():
    with pytest.raises(ValueError, match=r"^bits 4 out of range for rank 2$"):
        GroupElement(2, 4)
    with pytest.raises(ValueError, match=r"^bits -1 out of range for rank 3$"):
        GroupElement(rank=3, bits=-1)
    with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
        GroupElement(0, 0)
    with pytest.raises(ValueError):
        from_label(2, "q")


def test_element_is_the_tuple_rank_bits():
    """repr, hash and order are those of (rank, bits), so dicts and sets
    keyed by elements keep their order; the fields are read-only."""
    g = GroupElement(2, 1)
    assert repr(g) == "GroupElement(rank=2, bits=1)"
    assert str(g) == "a" and g == (2, 1) and tuple(g) == (2, 1)
    for rank in (1, 2, 3, 4):
        for x in enumerate_group(rank):
            assert hash(x) == hash((x.rank, x.bits))
    elems = [GroupElement(r, b) for r in (3, 1, 2) for b in range(2**r)]
    assert sorted(elems) == sorted(elems, key=lambda x: (x.rank, x.bits))
    assert GroupElement(2, 3) < GroupElement(3, 0) and GroupElement(3, 1) > GroupElement(3, 0)
    for field in ("rank", "bits", "label"):
        with pytest.raises(AttributeError):
            setattr(g, field, 1)
    with pytest.raises(AttributeError):
        g.extra = 1
