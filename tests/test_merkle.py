import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssisim.merkle import (
    PADDING_LEAF,
    leaf_hash,
    merkle_path,
    merkle_root,
    verify_path,
)


def leaves_of(n):
    return [leaf_hash(bytes([i]) * 4) for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9])
def test_every_leaf_proves_against_the_root(n):
    leaves = leaves_of(n)
    root = merkle_root(leaves)
    for i in range(n):
        assert verify_path(leaves[i], merkle_path(leaves, i), root)


def test_single_leaf_tree_has_empty_path():
    leaves = leaves_of(1)
    assert merkle_path(leaves, 0) == ()
    assert merkle_root(leaves) == leaves[0]


def test_padding_leaf_is_fixed():
    # 3 leaves pad to 4; the padding sibling shows up in leaf 2's path
    leaves = leaves_of(3)
    path = merkle_path(leaves, 2)
    assert path[0].sibling == PADDING_LEAF


def test_mutated_leaf_fails():
    leaves = leaves_of(4)
    root = merkle_root(leaves)
    path = merkle_path(leaves, 1)
    assert not verify_path(leaf_hash(b"not the leaf"), path, root)


def test_wrong_root_fails():
    leaves = leaves_of(4)
    path = merkle_path(leaves, 0)
    assert not verify_path(leaves[0], path, merkle_root(leaves_of(5)))


def test_path_for_wrong_index_fails():
    leaves = leaves_of(4)
    root = merkle_root(leaves)
    assert not verify_path(leaves[0], merkle_path(leaves, 1), root)


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


@pytest.mark.parametrize("n", [1, 4, 5])
def test_path_index_past_the_last_leaf_is_refused(n):
    with pytest.raises(IndexError, match="out of range"):
        merkle_path(leaves_of(n), n)


@given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=12))
@settings(max_examples=100)
def test_proof_roundtrip_property(blobs):
    leaves = [leaf_hash(b) for b in blobs]
    root = merkle_root(leaves)
    for i in range(len(leaves)):
        assert verify_path(leaves[i], merkle_path(leaves, i), root)
