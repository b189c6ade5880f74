"""Merkle tree over salted attribute commitments.

Leaf and interior hashes are domain-separated (0x00 / 0x01 prefixes) and
leaf counts are padded to the next power of two with a fixed padding
leaf, so every proof has an unambiguous shape.
"""

from dataclasses import dataclass

from .errors import ParseError
from .serialization import Record, expect_str, hex_codec, sha256

PADDING_LEAF = sha256(b"\x02ssisim/merkle/padding/v1")


def leaf_hash(data: bytes) -> bytes:
    return sha256(b"\x00" + data)


def node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"\x01" + left + right)


def _load_side(value, where: str) -> bool:
    side = expect_str(value, where)
    if side not in ("left", "right"):
        raise ParseError(f"merkle path side must be 'left' or 'right', got {side!r}")
    return side == "left"


SIDE = (lambda on_left: "left" if on_left else "right", _load_side)


@dataclass(frozen=True)
class PathStep(Record):
    sibling: bytes
    sibling_on_left: bool

    JSON = (("sibling", hex_codec(32)), ("side", SIDE, "sibling_on_left"))


def _padded(leaves: list) -> list:
    size = 1
    while size < len(leaves):
        size *= 2
    return list(leaves) + [PADDING_LEAF] * (size - len(leaves))


def _levels(leaves: list) -> list:
    levels = [_padded(leaves)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append([node_hash(prev[i], prev[i + 1]) for i in range(0, len(prev), 2)])
    return levels


def merkle_root(leaves: list) -> bytes:
    if not leaves:
        raise ValueError("merkle tree needs at least one leaf")
    return _levels(leaves)[-1][0]


def merkle_path(leaves: list, index: int) -> tuple:
    """Authentication path for leaves[index], bottom-up."""
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} out of range")
    path = []
    pos = index
    for level in _levels(leaves)[:-1]:
        sibling_pos = pos - 1 if pos % 2 else pos + 1
        path.append(PathStep(sibling=level[sibling_pos], sibling_on_left=sibling_pos < pos))
        pos //= 2
    return tuple(path)


def verify_path(leaf: bytes, path, root: bytes) -> bool:
    current = leaf
    for step in path:
        if step.sibling_on_left:
            current = node_hash(step.sibling, current)
        else:
            current = node_hash(current, step.sibling)
    return current == root
