"""Merkle tree over salted attribute commitments.

Leaf and interior hashes are domain-separated (0x00 / 0x01 prefixes) and
leaf counts are padded to the next power of two with a fixed padding
leaf, so every proof has an unambiguous shape. The prefixes are written
only here; interior nodes are hashed inline, one hashlib call per node.
"""

from dataclasses import dataclass
from hashlib import sha256

from .errors import ParseError
from .serialization import Record, expect_str, hex_codec

_LEAF, _NODE = b"\x00", b"\x01"
PADDING_LEAF = sha256(b"\x02ssisim/merkle/padding/v1").digest()


def leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF + data).digest()


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
        levels.append([sha256(_NODE + prev[i] + prev[i + 1]).digest()
                       for i in range(0, len(prev), 2)])
    return levels


def merkle_root(leaves: list) -> bytes:
    if not leaves:
        raise ValueError("merkle tree needs at least one leaf")
    return _levels(leaves)[-1][0]


def merkle_paths(leaves: list, indices) -> list:
    """Authentication path for leaves[i], bottom-up, for each i in indices: one tree."""
    for index in indices:
        if not 0 <= index < len(leaves):
            raise IndexError(f"leaf index {index} out of range")
    below_root = _levels(leaves)[:-1] if indices else []  # a reveal of nothing needs no tree
    return [tuple(PathStep(sibling=level[(index >> depth) ^ 1],
                           sibling_on_left=bool(index >> depth & 1))
                  for depth, level in enumerate(below_root)) for index in indices]


def merkle_path(leaves: list, index: int) -> tuple:
    """Authentication path for leaves[index], bottom-up."""
    return merkle_paths(leaves, (index,))[0]


def verify_path(leaf: bytes, path, root: bytes) -> bool:
    current = leaf
    for step in path:
        if step.sibling_on_left:
            current = sha256(_NODE + step.sibling + current).digest()
        else:
            current = sha256(_NODE + current + step.sibling).digest()
    return current == root
