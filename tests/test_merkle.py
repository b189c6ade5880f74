import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssisim.merkle import (
    PADDING_LEAF,
    PathStep,
    leaf_hash,
    merkle_path,
    merkle_paths,
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


# --- a plain recursive tree, the reference the module is checked against --------------


def ref_leaf(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def ref_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def ref_padded(leaves: list) -> list:
    size = 1
    while size < len(leaves):
        size *= 2
    return leaves + [PADDING_LEAF] * (size - len(leaves))


def ref_root(nodes: list) -> bytes:
    if len(nodes) == 1:
        return nodes[0]
    half = len(nodes) // 2
    return ref_node(ref_root(nodes[:half]), ref_root(nodes[half:]))


def ref_path(nodes: list, index: int) -> list:
    """(sibling, sibling_on_left) from the leaf up: the other half's root at each split."""
    if len(nodes) == 1:
        return []
    half = len(nodes) // 2
    if index < half:
        return ref_path(nodes[:half], index) + [(ref_root(nodes[half:]), False)]
    return ref_path(nodes[half:], index - half) + [(ref_root(nodes[:half]), True)]


def test_the_padding_leaf_is_its_fixed_tagged_hash():
    assert PADDING_LEAF == hashlib.sha256(b"\x02ssisim/merkle/padding/v1").digest()


@pytest.mark.parametrize("n", range(1, 34))
def test_the_tree_matches_the_reference_byte_for_byte(n):
    data = [i.to_bytes(2, "big") * 3 for i in range(n)]
    leaves = [ref_leaf(d) for d in data]
    assert [leaf_hash(d) for d in data] == leaves
    root = ref_root(ref_padded(leaves))
    assert merkle_root(leaves) == root
    expected = [tuple(PathStep(sibling, on_left) for sibling, on_left
                      in ref_path(ref_padded(leaves), i)) for i in range(n)]
    assert [merkle_path(leaves, i) for i in range(n)] == expected
    assert merkle_paths(leaves, list(range(n))[::-1]) == expected[::-1]
    for leaf, path in zip(leaves, expected):
        assert verify_path(leaf, path, root)
        for depth, step in enumerate(path):
            flipped = bytes([step.sibling[0] ^ 1]) + step.sibling[1:]
            for bad in (PathStep(flipped, step.sibling_on_left),
                        PathStep(step.sibling, not step.sibling_on_left)):
                assert not verify_path(leaf, path[:depth] + (bad,) + path[depth + 1:], root)
