"""Canonical encodings shared by every signed payload and every file format.

Binary rule (all signed payloads and hash preimages): fields are
concatenated in declaration order; integers are 8-byte big-endian;
byte strings are length-prefixed with an 8-byte big-endian count;
strings are their UTF-8 bytes, length-prefixed; lists are prefixed
with their item count as an 8-byte big-endian integer.

JSON rule (all exported files): UTF-8, compact separators, object keys
in the documented fixed order for each type, binary fields as lowercase
hex. Exports are bit-exact, so they are safe for golden tests. A type's
`JSON` table (see `Record`) is the one definition of its keys and their
order: the dump and the strict parse are both built from it.
"""

import hashlib
import json
import re
import struct

from .errors import ParseError

B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(B58_ALPHABET)}
_HEX_RE = re.compile(r"^[0-9a-f]*$")
_MAX_INT = 2**64 - 1


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# --- binary canonical encoding ----------------------------------------------


def encode_int(value: int) -> bytes:
    if value < 0:
        raise ValueError("canonical integers are non-negative")
    return struct.pack(">Q", value)


def encode_bytes(data: bytes) -> bytes:
    return struct.pack(">Q", len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def encode_parts(*parts) -> bytes:
    """Concatenate heterogeneous fields under the canonical binary rule.

    ints -> 8-byte big-endian; bytes -> length-prefixed; str -> UTF-8
    length-prefixed; list/tuple -> count-prefixed sequence of items.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("bool is not a canonical field type")
        if isinstance(part, int):
            out += encode_int(part)
        elif isinstance(part, bytes):
            out += encode_bytes(part)
        elif isinstance(part, str):
            out += encode_str(part)
        elif isinstance(part, (list, tuple)):
            out += encode_int(len(part))
            for item in part:
                out += encode_parts(item)
        else:
            raise TypeError(f"cannot canonically encode {type(part).__name__}")
    return bytes(out)


# --- base58 (Bitcoin alphabet, no checksum) ----------------------------------


def b58encode(data: bytes) -> str:
    zeros = len(data) - len(data.lstrip(b"\x00"))
    value = int.from_bytes(data, "big")
    digits = []
    while value > 0:
        value, rem = divmod(value, 58)
        digits.append(B58_ALPHABET[rem])
    return "1" * zeros + "".join(reversed(digits))


def b58decode(text: str) -> bytes:
    value = 0
    for char in text:
        try:
            value = value * 58 + _B58_INDEX[char]
        except KeyError:
            raise ParseError(f"invalid base58 character {char!r}") from None
    zeros = len(text) - len(text.lstrip("1"))
    body = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return b"\x00" * zeros + body


# --- canonical JSON ----------------------------------------------------------


def canonical_json(obj) -> str:
    """Compact JSON with keys in insertion order (the documented order)."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def canonical_json_bytes(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")


def load_json(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None


# --- strict field extraction --------------------------------------------------


def expect_object(value, keys: tuple, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected object")
    if tuple(value.keys()) != keys:
        raise ParseError(f"{where}: keys must be exactly {list(keys)}, got {list(value.keys())}")
    return value


def expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected string")
    return value


def expect_int(value, where: str) -> int:
    """A canonical integer: it must fit the binary rule's 8 unsigned bytes."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _MAX_INT:
        raise ParseError(f"{where}: expected integer in [0, 2^64-1]")
    return value


def expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected array")
    return value


def parse_hex(value, length: int | None, where: str) -> bytes:
    """Strict lowercase-hex decode; `length` is the expected byte count."""
    text = expect_str(value, where)
    if len(text) % 2 != 0 or not _HEX_RE.fullmatch(text):
        raise ParseError(f"{where}: expected lowercase hex")
    data = bytes.fromhex(text)
    if length is not None and len(data) != length:
        raise ParseError(f"{where}: expected {length} bytes, got {len(data)}")
    return data


# --- declared JSON records -----------------------------------------------------
# A codec is a (dump, load) pair: dump(field) gives the JSON value and
# load(value, where) gives the field back or raises ParseError naming `where`.

STR = (str, expect_str)
INT = (int, expect_int)


def hex_codec(length: int | None) -> tuple:
    """Bytes as lowercase hex; `length` is the exact byte count, None for any."""
    return bytes.hex, lambda value, where: parse_hex(value, length, where)


def list_codec(item: tuple) -> tuple:
    """A JSON array of `item`, held as a tuple."""
    dump, load = item

    def load_list(value, where: str) -> tuple:
        return tuple(load(x, f"{where}[{i}]") for i, x in enumerate(expect_list(value, where)))

    return lambda items: [dump(x) for x in items], load_list


def pairs_codec(first: str, second: str) -> tuple:
    """(str, str) pairs as an array of {first: ..., second: ...} objects."""
    keys = (first, second)

    def load_pair(value, where: str) -> tuple:
        obj = expect_object(value, keys, where)
        return expect_str(obj[first], first), expect_str(obj[second], second)

    return list_codec((lambda pair: dict(zip(keys, pair)), load_pair))


def record_codec(cls) -> tuple:
    """A nested Record, in its own JSON form."""
    return cls.to_json_dict, cls.from_json_dict


class Record:
    """Mixin giving a dataclass its JSON form from one declaration.

    `JSON` lists `(key, codec)` or `(key, codec, attribute)` entries in file
    order. A key whose attribute is not a dataclass field (a transaction's
    `kind`) is a class constant: it is dumped from the class and must match on
    load. Fields left out of `JSON` are passed to `from_json_dict` as keywords.
    """

    JSON = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Runs before @dataclass, so the fields are read from the annotations.
        fields = {name for klass in cls.__mro__ for name in vars(klass).get("__annotations__", {})}
        table = [(key, entry[0] if entry else key, dump, load)
                 for key, (dump, load), *entry in cls.JSON]
        cls._keys = tuple(key for key, _, _, _ in table)
        cls._dumps = tuple((key, attr, dump) for key, attr, dump, _ in table)
        cls._loads = tuple((key, attr, load) for key, attr, _, load in table if attr in fields)
        cls._constants = tuple((key, getattr(cls, attr), load)
                               for key, attr, _, load in table if attr not in fields)

    def to_json_dict(self) -> dict:
        return {key: dump(getattr(self, attr)) for key, attr, dump in self._dumps}

    @classmethod
    def from_json_dict(cls, value, where: str | None = None, **extra):
        where = where or cls.__name__
        obj = expect_object(value, cls._keys, where)
        for key, constant, load in cls._constants:
            if load(obj[key], key) != constant:
                raise ParseError(f"{where}: {key} must be {constant!r}")
        return cls(**{attr: load(obj[key], key) for key, attr, load in cls._loads}, **extra)
