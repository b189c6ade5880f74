import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssisim.errors import ParseError
from ssisim.serialization import (
    b58decode,
    b58encode,
    canonical_json,
    encode_parts,
    expect_int,
    expect_object,
    load_json,
    parse_hex,
)


class TestBase58:
    def test_known_roundtrips(self):
        for data in (b"", b"\x00", b"\x00\x00\x01", b"hello world", bytes(range(32))):
            assert b58decode(b58encode(data)) == data

    def test_leading_zeros_become_ones(self):
        assert b58encode(b"\x00\x00\x01").startswith("11")

    def test_rejects_non_alphabet_characters(self):
        for bad in ("0", "O", "I", "l", "abc!"):
            with pytest.raises(ParseError):
                b58decode(bad)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_roundtrip_property(self, data):
        assert b58decode(b58encode(data)) == data


class TestCanonicalEncoding:
    def test_int_is_8_byte_big_endian(self):
        assert encode_parts(1) == b"\x00" * 7 + b"\x01"

    def test_bytes_are_length_prefixed(self):
        assert encode_parts(b"ab") == b"\x00" * 7 + b"\x02" + b"ab"

    def test_lists_are_count_prefixed(self):
        assert encode_parts(["a"]) == encode_parts(1) + encode_parts("a")

    def test_field_boundaries_cannot_shift(self):
        # ("a", "bc") and ("ab", "c") must encode differently
        assert encode_parts("a", "bc") != encode_parts("ab", "c")

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            encode_parts(-1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            encode_parts(True)


class TestStrictJson:
    def test_canonical_json_is_compact_and_ordered(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_expect_object_requires_exact_keys_in_order(self):
        with pytest.raises(ParseError):
            expect_object({"a": 1, "b": 2}, ("b", "a"), "x")
        with pytest.raises(ParseError):
            expect_object({"a": 1}, ("a", "b"), "x")
        assert expect_object({"a": 1, "b": 2}, ("a", "b"), "x")

    def test_parse_hex_rejects_uppercase_and_odd_length(self):
        assert parse_hex("0aff", 2, "x") == b"\x0a\xff"
        with pytest.raises(ParseError):
            parse_hex("0AFF", 2, "x")
        with pytest.raises(ParseError):
            parse_hex("0af", None, "x")
        with pytest.raises(ParseError):
            parse_hex("0aff", 3, "x")

    def test_expect_int_takes_exactly_the_canonical_range(self):
        assert expect_int(0, "x") == 0
        assert expect_int(2**64 - 1, "x") == 2**64 - 1
        for bad in (-1, 2**64, True, 1.0, "1"):
            with pytest.raises(ParseError):
                expect_int(bad, "x")

    def test_too_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_json(b"[" * 100_000)
