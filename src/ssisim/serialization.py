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
order: the dump and the strict parse are both built from it. Imports take
canonical bytes only, so every file that loads re-exports to its exact bytes.
"""

import base64
import hashlib
import json
import struct

from .errors import ParseError

B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(B58_ALPHABET)}
MAX_INT = 2**64 - 1  # the largest integer the binary rule's 8 bytes hold


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# --- binary canonical encoding ----------------------------------------------


_U64 = struct.Struct(">Q").pack  # every integer, length and count prefix of the binary rule


def encode_bytes(data: bytes) -> bytes:
    return _U64(len(data)) + data


def encode_parts(*parts) -> bytes:
    """Concatenate heterogeneous fields under the canonical binary rule.

    ints -> 8-byte big-endian; bytes -> length-prefixed; str -> UTF-8
    length-prefixed; list/tuple -> count-prefixed sequence of items. A
    subclass encodes as its base type's value (a str enum as its value);
    bool, float, None, bytearray, memoryview, dict and any other type raise
    TypeError, a negative int ValueError, an int above 2^64-1 struct.error
    and a str with a lone surrogate UnicodeEncodeError.
    """
    out = []
    _encode_into(out, parts)
    return b"".join(out)


def encode_rows(encoded: list, width: int) -> bytes:
    """encode_parts(rows) for a list of width-part rows, from each row's encode_parts(*row)."""
    prefix = _U64(width)
    return _U64(len(encoded)) + b"".join([prefix + row for row in encoded])


def _encode_into(out: list, parts) -> None:
    """Append the encoding of each part to out: any str, then by exact type."""
    append = out.append
    for part in parts:
        kind = type(part)
        if isinstance(part, str):
            data = str.encode(part, "utf-8")
            append(_U64(len(data)))
            append(data)
        elif kind is bytes:
            append(_U64(len(part)))
            append(part)
        elif kind is int:
            if part < 0:
                raise ValueError("canonical integers are non-negative")
            append(_U64(part))
        elif kind is list or kind is tuple:
            append(_U64(len(part)))
            _encode_into(out, part)
        else:
            _encode_other(out, part)


# The slow path: a subclass is matched in this order and encoded as a value of its
# base type. A str subclass never gets here: str.encode reads its text, which for a
# str enum member is its value, where str() gives its name.
_BASES = ((int, int.__index__), (bytes, bytes), ((list, tuple), list))


def _encode_other(out: list, part) -> None:
    if isinstance(part, bool):
        raise TypeError("bool is not a canonical field type")
    for base, value in _BASES:
        if isinstance(part, base):
            _encode_into(out, (value(part),))
            return
    raise TypeError(f"cannot canonically encode {type(part).__name__}")


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
    """Parse canonical JSON: bytes its own dump would not reproduce are a ParseError.

    That refuses whitespace, escape variants, number forms and duplicate keys.
    """
    return check_canonical(parse_json(data), data)


def parse_json(data: bytes):
    """The JSON value of data's UTF-8 text, as json.loads reads it; not yet checked
    to be canonical (see check_canonical)."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None


def check_canonical(obj, data: bytes):
    """obj, if its canonical dump is exactly data; else ParseError.

    A caller that parsed data itself passes its parse here, so a parse of other
    bytes is refused like a non-canonical file.
    """
    try:
        canonical = canonical_json_bytes(obj)
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    except UnicodeEncodeError:
        raise ParseError("not valid JSON: a string holds a lone surrogate") from None
    if canonical != data:
        offset = next((i for i, (a, b) in enumerate(zip(data, canonical)) if a != b),
                      min(len(data), len(canonical)))
        raise ParseError(f"not canonical JSON: differs from its canonical form at byte {offset}")
    return obj


def complete_items(data: bytes, key: str) -> list:
    """The byte offset just past each complete item of the array that key opens in
    the top-level JSON object in data, up to the first item that does not parse.

    For bytes that do not parse as a whole, such as a file cut short: the keys before
    key, and their values, must parse; [] if they do not.
    """
    text = data.decode("utf-8", "surrogateescape")
    scan = json.JSONDecoder().raw_decode
    ends, at = [], 1
    try:
        if not text.startswith("{"):
            return []
        while True:
            name, at = scan(text, at)
            if text[at] != ":":
                return []
            if name == key:
                break
            _, at = scan(text, at + 1)
            if text[at] != ",":
                return []
            at += 1
        if text[at + 1] != "[":
            return []
        at += 2
        offset = len(text[:at].encode("utf-8", "surrogateescape"))  # of text[at]
        while True:
            _, end = scan(text, at)
            offset += len(text[at:end].encode("utf-8", "surrogateescape"))
            ends.append(offset)
            if text[end] != ",":
                return ends
            at = end + 1
            offset += 1
    except (ValueError, IndexError, RecursionError):
        return ends


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
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_INT:
        raise ParseError(f"{where}: expected integer in [0, 2^64-1]")
    return value


def expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected array")
    return value


def parse_hex(value, length: int | None, where: str) -> bytes:
    """Strict lowercase-hex decode; `length` is the expected byte count."""
    text = expect_str(value, where)
    try:
        data = bytes.fromhex(text)
        if data.hex() != text:  # fromhex also takes uppercase digits and whitespace
            raise ValueError(text)
    except ValueError:
        raise ParseError(f"{where}: expected lowercase hex") from None
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


HASH = hex_codec(32)  # a sha256 digest


def _dump_base64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _load_base64(value, where: str) -> bytes:
    text = expect_str(value, where)
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ParseError(f"{where}: invalid base64: {exc}") from None
    if _dump_base64(data) != text:  # decoding skips the unused pad bits
        raise ParseError(f"{where}: non-canonical base64 {text!r}")
    return data


# Bytes as standard padded base64, exactly as b64encode writes them.
BASE64 = (_dump_base64, _load_base64)


def list_codec(item: tuple) -> tuple:
    """A JSON array of `item`, held as a tuple."""
    dump, load = item

    def load_list(value, where: str) -> tuple:
        return tuple(load(x, f"{where}[{i}]") for i, x in enumerate(expect_list(value, where)))

    return lambda items: [dump(x) for x in items], load_list


def pairs_codec(first: str, second: str, codec: tuple = STR) -> tuple:
    """(str, value) pairs as an array of {first: ..., second: ...}; `codec` holds the value."""
    keys = (first, second)
    dump, load = codec

    def load_pair(value, where: str) -> tuple:
        obj = expect_object(value, keys, where)
        return expect_str(obj[first], f"{where}.{first}"), load(obj[second], f"{where}.{second}")

    return list_codec((lambda pair: {first: pair[0], second: dump(pair[1])}, load_pair))


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

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls.from_json_dict(load_json(data))

    @classmethod
    def from_json_dict(cls, value, where: str | None = None, **extra):
        where = where or cls.__name__
        obj = expect_object(value, cls._keys, where)
        for key, constant, load in cls._constants:
            if load(obj[key], key) != constant:
                raise ParseError(f"{where}: {key} must be {constant!r}")
        return cls(**{attr: load(obj[key], key) for key, attr, load in cls._loads}, **extra)
