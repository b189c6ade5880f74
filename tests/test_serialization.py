import re
import struct
from dataclasses import replace
from enum import Enum, IntEnum
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssisim.credentials
import ssisim.ledger
from ssisim import pki
from ssisim.agents import auth_signing_payload
from ssisim.credentials import (
    Credential,
    RevealedAttribute,
    build_credential,
    commitment_leaf,
    credential_signing_payload,
    encodings_set_hash,
    presentation_signing_payload,
)
from ssisim.engine import define_schema, issue_credential, revoke_credential
from ssisim.errors import ParseError
from ssisim.identity import (
    DidDocument,
    _envelope_aad,
    derive_did,
    did_document_payload,
    generate_keypair,
    make_did_document,
    sign,
)
from ssisim.ledger import (
    AnchorCredential,
    CredentialSchema,
    DefineSchema,
    Ledger,
    RegisterDid,
    Revoke,
    anchor_credential_payload,
    block_hash_for,
    define_schema_payload,
    make_schema,
    revoke_payload,
    schema_id_for,
)
from ssisim.pki import Certificate, certificate_payload, issue_signed_certificate
from ssisim.runtime import DeterministicRng, LogicalClock
from ssisim.serialization import (
    MAX_INT,
    b58decode,
    b58encode,
    canonical_json,
    complete_items,
    encode_bytes,
    encode_parts,
    expect_int,
    expect_object,
    expect_str,
    load_json,
    parse_hex,
)
from ssisim.verdicts import verify

from conftest import seeded_keypair


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


def reference_encode(*parts) -> bytes:
    """The binary rule as a plain recursive isinstance chain: the oracle for encode_parts."""
    out = bytearray()
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("bool is not a canonical field type")
        if isinstance(part, int):
            if part < 0:
                raise ValueError("canonical integers are non-negative")
            out += struct.pack(">Q", part)
        elif isinstance(part, bytes):
            out += struct.pack(">Q", len(part)) + part
        elif isinstance(part, str):
            data = part.encode("utf-8")
            out += struct.pack(">Q", len(data)) + data
        elif isinstance(part, (list, tuple)):
            out += struct.pack(">Q", len(part))
            out += reference_encode(*part)
        else:
            raise TypeError(f"cannot canonically encode {type(part).__name__}")
    return bytes(out)


class Kind(str, Enum):
    ANCHOR = "anchor_credential"


class Level(IntEnum):
    HIGH = 2**40


class Text(str):
    pass


class Blob(bytes):
    pass


class Items(list):
    pass


class Row(tuple):
    pass


SCALARS = st.one_of(st.text(), st.binary(), st.integers(0, 2**64 - 1),
                    st.sampled_from([Kind.ANCHOR, Level.HIGH, Text("tëxt"), Blob(b"\x00b")]))
FIELDS = st.recursive(SCALARS, lambda items: st.one_of(
    st.lists(items, max_size=4), st.lists(items, max_size=4).map(tuple),
    st.lists(items, max_size=4).map(Items), st.lists(items, max_size=4).map(Row)),
    max_leaves=16)

# Each value the binary rule refuses, with what it raises, top-level or nested.
REFUSED = [
    (True, TypeError), (False, TypeError), (1.0, TypeError), (None, TypeError),
    (bytearray(b"a"), TypeError), (memoryview(b"a"), TypeError), ({"a": 1}, TypeError),
    (-1, ValueError), (2**64, struct.error), ("a\udcff", UnicodeEncodeError),
]


class TestOnePassKernel:
    """encode_parts equals the recursive reference on every field it takes, and refuses alike."""

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(FIELDS, max_size=6))
    @example(parts=["Zoë ✓", b"", 0, 2**64 - 1, [], (["a", (b"b", 1)],)])
    def test_matches_the_reference(self, parts):
        assert encode_parts(*parts) == reference_encode(*parts)

    @pytest.mark.parametrize("subclass, base", [
        (Kind.ANCHOR, "anchor_credential"), (Level.HIGH, 2**40), (Text("t"), "t"),
        (Blob(b"b"), b"b"), (Items(["a", 1]), ["a", 1]), (Row(("a", 1)), ("a", 1)),
    ])
    def test_a_subclass_encodes_as_its_base_type(self, subclass, base):
        assert encode_parts(subclass) == encode_parts(base) == reference_encode(subclass)
        assert encode_parts([subclass]) == encode_parts([base])

    @pytest.mark.parametrize("value, error", REFUSED)
    def test_refused_values_raise_as_the_reference_does(self, value, error):
        for parts in ([value], ["ok", [value]], [("ok", (1, value))]):
            with pytest.raises(error):
                reference_encode(*parts)
            with pytest.raises(error):
                encode_parts(*parts)

    def test_the_largest_integer_fits_and_the_next_does_not(self):
        assert encode_parts(2**64 - 1) == b"\xff" * 8
        assert encode_parts([2**64 - 1]) == b"\x00" * 7 + b"\x01" + b"\xff" * 8
        for parts in ([2**64], [[2**64]]):
            with pytest.raises(struct.error):
                encode_parts(*parts)

    def test_encode_bytes_is_the_rule_for_one_byte_string(self):
        assert encode_bytes(b"abc") == encode_parts(b"abc") == b"\x00" * 7 + b"\x03abc"


def _unhashed(module, name, build):
    """The preimage that build() would hash: module.name, a hash function, is patched out."""
    with mock.patch.object(module, name, lambda data: data):
        return build()


def _signed(tx, keypair):
    return replace(tx, submitter_signature=sign(keypair.private_key, tx.signing_payload()))


def known_payloads() -> dict:
    """One signing payload or hash preimage per context string, from fixed keys and values."""
    issuer, holder = seeded_keypair(b"issuer"), seeded_keypair(b"holder")
    issuer_did, holder_did = derive_did(issuer.public_key), derive_did(holder.public_key)
    document = make_did_document(holder, (("agent", "https://holder.example/ü"),),
                                 created_at=7)
    schema = make_schema(issuer_did, "Patient ✓", 2, ["name", "dob"])
    cid, root = b"\x11" * 32, b"\x22" * 32
    revealed = (RevealedAttribute("dob", "1990-04-12", b"\x33" * 16, ()),
                RevealedAttribute("name", "Zoë", b"\x44" * 16, ()))
    return {
        "tx/register_did": RegisterDid(document).canonical_bytes(),
        "tx/define_schema": _signed(DefineSchema(schema, b""), issuer).canonical_bytes(),
        "tx/anchor_credential": _signed(AnchorCredential(cid, issuer_did, root, b""),
                                        issuer).canonical_bytes(),
        "tx/revoke": _signed(Revoke(cid, issuer_did, b""), issuer).canonical_bytes(),
        "block": _unhashed(ssisim.ledger, "sha256",
                           lambda: block_hash_for(3, b"\x55" * 32, 2**40 + 1, b"\x66" * 32)),
        "did-document": document.signing_payload(),
        "schema": _unhashed(ssisim.ledger, "sha256",
                            lambda: schema_id_for(issuer_did, "Patient ✓", 2, ("dob", "name"))),
        "credential": credential_signing_payload(cid, schema.schema_id, issuer_did, holder_did,
                                                 root, 2**33),
        "commitment-leaf": _unhashed(ssisim.credentials, "leaf_hash",
                                     lambda: commitment_leaf("name", "Zoë", b"\x44" * 16)),
        "revealed-set": _unhashed(ssisim.credentials, "sha256", lambda: encodings_set_hash(
            [encode_parts(r.name, r.value, r.salt) for r in revealed])),
        "presentation": presentation_signing_payload(cid, b"\x77" * 32, b"\x88" * 32),
        "certificate": Certificate(9, "subject é", holder.public_key, "root-ca", 5, 2**63,
                                   b"").signing_payload(),
        "did-auth": auth_signing_payload(b"\x99" * 32, issuer_did),
        "envelope-aad": _envelope_aad(issuer.key_id, holder.key_id),
    }


# Computed with the recursive encoder this kernel replaced; the bytes must never move.
KNOWN_PAYLOADS = {
    "tx/register_did": (
        "000000000000000c73736973696d2f74782f7631000000000000000c72656769"
        "737465725f64696400000000000000ef000000000000001673736973696d2f64"
        "69642d646f63756d656e742f763100000000000000336469643a73696d3a6d43"
        "6b3351596d61563856316f69617965734e5a6e6850794472626746314542375a"
        "37384867535765744600000000000000207d766b9eba60232effe0c1034ae3d7"
        "bdb4e5e0075d79d634c1ed2f79de09a3d30000000000000020a50fd604321da8"
        "5ed6f712163fb128656daed0f53df0463cc10e2bfca26a783f00000000000000"
        "01000000000000000200000000000000056167656e7400000000000000196874"
        "7470733a2f2f686f6c6465722e6578616d706c652fc3bc000000000000000700"
        "00000000000040f63c5c8879e01b1471d41ce606260405f63b9e4878c228f2c6"
        "97fa545a3790c0c7eba655657ed4923df87184fa9f0447c67fa7770b7af35040"
        "6afc5beb9b7f00"
    ),
    "tx/define_schema": (
        "000000000000000c73736973696d2f74782f7631000000000000000d64656669"
        "6e655f736368656d610000000000000020256425e9d9d9223a2defff7666ad3c"
        "145d1a2e179c107d637e532abd602be6ec00000000000000346469643a73696d"
        "3a374a6261396a6942727745684a516a615743464a623839796d684646546f75"
        "57315267525270786a32746467000000000000000b50617469656e7420e29c93"
        "000000000000000200000000000000020000000000000003646f620000000000"
        "0000046e616d650000000000000040bb9e34188884b8f5271479b61a1e84a1c9"
        "286e9a89b4dc1c77c99f95d968e74abf1d60e0947ec9b749c2de31618fb05bc3"
        "e559b00931c0dccd0dd71a4aba5908"
    ),
    "tx/anchor_credential": (
        "000000000000000c73736973696d2f74782f76310000000000000011616e6368"
        "6f725f63726564656e7469616c00000000000000201111111111111111111111"
        "1111111111111111111111111111111111111111110000000000000034646964"
        "3a73696d3a374a6261396a6942727745684a516a615743464a623839796d6846"
        "46546f7557315267525270786a32746467000000000000002022222222222222"
        "2222222222222222222222222222222222222222222222222200000000000000"
        "4064e93a3083f69cf7a04edad900d62084559867e780fb0d1614801768dc6db0"
        "9992235dda1d7a9229569020fbf01c406d6d12d7cdf2baf142cb0ce53e8ca29a"
        "01"
    ),
    "tx/revoke": (
        "000000000000000c73736973696d2f74782f763100000000000000067265766f"
        "6b65000000000000002011111111111111111111111111111111111111111111"
        "1111111111111111111100000000000000346469643a73696d3a374a6261396a"
        "6942727745684a516a615743464a623839796d684646546f7557315267525270"
        "786a327464670000000000000040b9cdb1a1e12a257c0089e7e237257e106b71"
        "6fea870336414ab883068c0b5bb089aea80f8675d25989b29fe0d6aaa08645e4"
        "d27d384c0ec6977763ade6a4150e"
    ),
    "block": (
        "000000000000000f73736973696d2f626c6f636b2f7631000000000000000300"
        "0000000000002055555555555555555555555555555555555555555555555555"
        "5555555555555500000100000000010000000000000020666666666666666666"
        "6666666666666666666666666666666666666666666666"
    ),
    "did-document": (
        "000000000000001673736973696d2f6469642d646f63756d656e742f76310000"
        "0000000000336469643a73696d3a6d436b3351596d61563856316f6961796573"
        "4e5a6e6850794472626746314542375a37384867535765744600000000000000"
        "207d766b9eba60232effe0c1034ae3d7bdb4e5e0075d79d634c1ed2f79de09a3"
        "d30000000000000020a50fd604321da85ed6f712163fb128656daed0f53df046"
        "3cc10e2bfca26a783f0000000000000001000000000000000200000000000000"
        "056167656e74000000000000001968747470733a2f2f686f6c6465722e657861"
        "6d706c652fc3bc0000000000000007"
    ),
    "schema": (
        "000000000000001073736973696d2f736368656d612f76310000000000000034"
        "6469643a73696d3a374a6261396a6942727745684a516a615743464a62383979"
        "6d684646546f7557315267525270786a32746467000000000000000b50617469"
        "656e7420e29c9300000000000000020000000000000002000000000000000364"
        "6f6200000000000000046e616d65"
    ),
    "credential": (
        "000000000000001473736973696d2f63726564656e7469616c2f763100000000"
        "0000002011111111111111111111111111111111111111111111111111111111"
        "111111110000000000000020256425e9d9d9223a2defff7666ad3c145d1a2e17"
        "9c107d637e532abd602be6ec00000000000000346469643a73696d3a374a6261"
        "396a6942727745684a516a615743464a623839796d684646546f755731526752"
        "5270786a3274646700000000000000336469643a73696d3a6d436b3351596d61"
        "563856316f69617965734e5a6e6850794472626746314542375a373848675357"
        "6574460000000000000020222222222222222222222222222222222222222222"
        "22222222222222222222220000000200000000"
    ),
    "commitment-leaf": (
        "00000000000000046e616d6500000000000000045a6fc3ab0000000000000010"
        "44444444444444444444444444444444"
    ),
    "revealed-set": (
        "000000000000000200000000000000030000000000000003646f620000000000"
        "00000a313939302d30342d313200000000000000103333333333333333333333"
        "3333333333000000000000000300000000000000046e616d6500000000000000"
        "045a6fc3ab000000000000001044444444444444444444444444444444"
    ),
    "presentation": (
        "000000000000001673736973696d2f70726573656e746174696f6e2f76310000"
        "0000000000201111111111111111111111111111111111111111111111111111"
        "1111111111110000000000000020777777777777777777777777777777777777"
        "7777777777777777777777777777000000000000002088888888888888888888"
        "88888888888888888888888888888888888888888888"
    ),
    "certificate": (
        "000000000000001573736973696d2f63657274696669636174652f7631000000"
        "0000000009000000000000000a7375626a65637420c3a900000000000000207d"
        "766b9eba60232effe0c1034ae3d7bdb4e5e0075d79d634c1ed2f79de09a3d300"
        "00000000000007726f6f742d636100000000000000058000000000000000"
    ),
    "did-auth": (
        "000000000000001273736973696d2f6469642d617574682f7631000000000000"
        "0020999999999999999999999999999999999999999999999999999999999999"
        "999900000000000000346469643a73696d3a374a6261396a6942727745684a51"
        "6a615743464a623839796d684646546f7557315267525270786a32746467"
    ),
    "envelope-aad": (
        "0000000000000010356461383135653338323834303262380000000000000010"
        "30623532643531396665653634323165"
    ),
}


class TestKnownPayloads:
    @pytest.mark.parametrize("name", sorted(KNOWN_PAYLOADS))
    def test_payload_bytes_are_pinned(self, name):
        assert known_payloads()[name].hex() == "".join(KNOWN_PAYLOADS[name])

    @pytest.mark.parametrize("name", ["tx", "block", "did-document", "schema", "credential",
                                      "presentation", "certificate", "did-auth"])
    def test_every_context_string_has_a_pinned_payload(self, name):
        context = encode_parts(f"ssisim/{name}/v1")
        assert any(data.startswith(context) for data in known_payloads().values())


def issuer_ledger(issuer) -> Ledger:
    """A chain whose one writer is the issuer, registered at genesis."""
    clock = LogicalClock(0)
    ledger = Ledger.genesis([make_did_document(issuer, created_at=clock.tick())], clock=clock)
    ledger.attach_writer(issuer)
    return ledger


def counted(monkeypatch, cls) -> list:
    """A list that grows by one each time cls.__init__ runs, from here on."""
    calls, init = [], cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(cls)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


class TestOneConstructionPerSignedRecord:
    """Each builder signs its kind's payload and constructs the record once, signature
    included: no placeholder record is built and then copied."""

    @staticmethod
    def paths() -> dict:
        """name -> (the signed type, a call building one record of it and none before it)."""
        issuer, holder = seeded_keypair(b"issuer"), seeded_keypair(b"holder")
        issuer_did = derive_did(issuer.public_key)
        rng = DeterministicRng(b"one-build".ljust(32, b"\x00"))
        schema = make_schema(issuer_did, "Badge", 1, ["level"])

        def issue():
            ledger = issuer_ledger(issuer)
            define_schema(issuer, "Badge", 1, ["level"], ledger)
            return ledger, issue_credential(issuer, issuer_did, schema, {"level": "3"}, ledger,
                                            rng=rng)

        def revoke():
            ledger, credential = issue()
            revoke_credential(issuer, credential.credential_id, ledger)

        return {
            "make_did_document": (DidDocument, lambda: make_did_document(
                holder, (("agent", "https://holder.example"),), created_at=3)),
            "define_schema": (DefineSchema, lambda: define_schema(
                issuer, "Badge", 1, ["level"], issuer_ledger(issuer))),
            "issue_credential": (AnchorCredential, issue),
            "revoke_credential": (Revoke, revoke),
            "build_credential": (Credential, lambda: build_credential(
                issuer, derive_did(holder.public_key), schema, {"level": "3"}, rng, 5)),
            "issue_signed_certificate": (Certificate, lambda: issue_signed_certificate(
                "root-ca", issuer, 7, "subject", holder.public_key, 0, 10)),
            "ledger compromise forgery": (DidDocument, lambda: pki._forged_document(
                holder, issuer, 9)),
        }

    @pytest.mark.parametrize("name", ["make_did_document", "define_schema", "issue_credential",
                                      "revoke_credential", "build_credential",
                                      "issue_signed_certificate", "ledger compromise forgery"])
    def test_one_construction_per_record(self, name, monkeypatch):
        cls, build = self.paths()[name]
        calls = counted(monkeypatch, cls)
        build()
        assert len(calls) == 1


TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
NAMES = st.lists(TEXT, min_size=1, max_size=4, unique=True)
UINT = st.integers(0, MAX_INT)
HASH32 = st.binary(min_size=32, max_size=32)
SEED = st.binary(min_size=32, max_size=32)
ENDPOINTS = st.lists(st.tuples(TEXT, TEXT), max_size=3).map(tuple)


class TestPayloadFunctions:
    """Each signed kind's signing_payload() is its module payload function over the same
    fields, and each builder's signature verifies over that payload under the signer's key.
    Drawn values take in empty and non-ASCII text and 2^64-1."""

    @settings(max_examples=40, deadline=None)
    @given(did=TEXT, keys=st.tuples(HASH32, HASH32), endpoints=ENDPOINTS, number=UINT,
           other=UINT, names=NAMES, name=TEXT, digests=st.tuples(HASH32, HASH32, HASH32),
           signature=st.binary(max_size=64))
    @example(did="", keys=(b"\x00" * 32, b"\xff" * 32), endpoints=(("", "é"),),
             number=MAX_INT, other=0, names=["", "Zoë"], name="✓", digests=(b"\x00" * 32,) * 3,
             signature=b"")
    def test_signing_payload_is_the_payload_function(self, did, keys, endpoints, number, other,
                                                     names, name, digests, signature):
        cid, schema_id, root = digests
        document = DidDocument(did, *keys, endpoints, number, signature)
        assert document.signing_payload() == did_document_payload(did, *keys, endpoints, number)
        schema = CredentialSchema(schema_id, did, name, number, tuple(names))
        assert DefineSchema(schema, signature).signing_payload() == define_schema_payload(schema)
        assert (AnchorCredential(cid, did, root, signature).signing_payload()
                == anchor_credential_payload(cid, did, root))
        assert Revoke(cid, did, signature).signing_payload() == revoke_payload(cid, did)
        credential = Credential(cid, schema_id, did, name, (), (), root, number, signature)
        assert credential.signing_payload() == credential_signing_payload(
            cid, schema_id, did, name, root, number)
        certificate = Certificate(number, name, keys[0], did, other, number, signature)
        assert certificate.signing_payload() == certificate_payload(
            number, name, keys[0], did, other, number)

    @settings(max_examples=15, deadline=None)
    @given(seeds=st.tuples(SEED, SEED), endpoints=ENDPOINTS, number=UINT, names=NAMES,
           name=TEXT, values=st.lists(TEXT, min_size=4, max_size=4))
    @example(seeds=(b"\x00" * 32, b"\x01" * 32), endpoints=(("", "ü"),), number=MAX_INT,
             names=["", "Zoë"], name="", values=["", "é", "", ""])
    def test_each_builder_signs_the_payload_function(self, seeds, endpoints, number, names,
                                                     name, values):
        signer, other = (generate_keypair(seed) for seed in seeds)
        signer_did, other_did = derive_did(signer.public_key), derive_did(other.public_key)
        attributes = dict(zip(names, values))
        rng = DeterministicRng(seeds[1])
        document = make_did_document(signer, endpoints, number)
        forged = pki._forged_document(other, signer, number)
        certificate = issue_signed_certificate(name, signer, number, name, other.public_key, 0,
                                               number)
        schema = make_schema(signer_did, name, number, names)
        credential = build_credential(signer, other_did, schema, attributes, rng, number)
        ledger = issuer_ledger(signer)
        define_schema(signer, name, number, names, ledger)
        issued = issue_credential(signer, signer_did, schema, attributes, ledger, rng=rng)
        revoke_credential(signer, issued.credential_id, ledger)
        defined, anchored, revoked = (block.transactions[0] for block in ledger.blocks[1:])
        signed = [  # (payload, signature) of each built record
            *((did_document_payload(doc.did, doc.verification_key, doc.key_agreement_key,
                                    doc.service_endpoints, doc.created_at),
               doc.controller_signature) for doc in (document, forged)),
            (certificate_payload(number, name, other.public_key, name, 0, number),
             certificate.issuer_signature),
            (credential_signing_payload(credential.credential_id, schema.schema_id, signer_did,
                                        other_did, credential.commitment_root, number),
             credential.issuer_signature),
            (define_schema_payload(schema), defined.submitter_signature),
            (anchor_credential_payload(issued.credential_id, signer_did, issued.commitment_root),
             anchored.submitter_signature),
            (revoke_payload(issued.credential_id, signer_did), revoked.submitter_signature),
        ]
        assert [verify(signer.public_key, *pair) for pair in signed] == [True] * 7


def regex_parse_hex(value, length, where):
    """parse_hex as it was before it dropped its regex: the reference for its refusals."""
    text = expect_str(value, where)
    if len(text) % 2 != 0 or not re.fullmatch(r"^[0-9a-f]*$", text):
        raise ParseError(f"{where}: expected lowercase hex")
    data = bytes.fromhex(text)
    if length is not None and len(data) != length:
        raise ParseError(f"{where}: expected {length} bytes, got {len(data)}")
    return data


def hex_outcome(parse, value, length):
    """parse's bytes, or the text of the ParseError it raised."""
    try:
        return parse(value, length, "x")
    except ParseError as exc:
        return str(exc)


HEX_CASES = [
    ("", None), ("", 0), ("", 1), ("0aff", 2), ("0aff", None), ("0aff", 3), ("0aff", 1),
    ("0af", None), ("a", 1),  # odd length
    ("0AFF", 2), ("0aFf", 2), ("AB", None),  # uppercase
    (" 0aff", 2), ("0a ff", 2), ("0aff ", 2), ("0a\tff", 2), ("  ", None),  # whitespace
    ("ab\n", 1), ("ab\n\n", None), ("\nab", 1),
    ("\u0661\u0662", 1), ("\uff10\uff10", 1), ("0\u0663", 1), ("ü0", None),  # not ASCII
    ("0g", 1), ("0x0a", None), ("--", 1),
    (None, 1), (12, 1), (b"0aff", 2), (["0a"], 1), (True, None),  # not a str
]


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

    @pytest.mark.parametrize("value, length", HEX_CASES)
    def test_parse_hex_refuses_as_the_regex_did(self, value, length):
        assert hex_outcome(parse_hex, value, length) == hex_outcome(
            regex_parse_hex, value, length)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="09afAF \t\n\x0b\u0663\uff10g", max_size=8),
           length=st.sampled_from([None, 0, 1, 2, 3]))
    def test_parse_hex_matches_the_regex_on_any_text(self, text, length):
        assert hex_outcome(parse_hex, text, length) == hex_outcome(regex_parse_hex, text, length)

    def test_expect_int_takes_exactly_the_canonical_range(self):
        assert expect_int(0, "x") == 0
        assert expect_int(2**64 - 1, "x") == 2**64 - 1
        for bad in (-1, 2**64, True, 1.0, "1"):
            with pytest.raises(ParseError):
                expect_int(bad, "x")

    def test_complete_items_gives_the_byte_offset_after_each_whole_item(self):
        data = canonical_json({"mode": "é", "blocks": [{"n": "ü"}, [1, {"x": "€"}], 7]}).encode()
        ends = [data.index(b"}", data.index(b"\xc3\xbc")) + 1, data.index(b"}]") + 2,
                len(data) - 2]
        assert complete_items(data, "blocks") == ends
        for cut in range(len(data)):  # a cut mid-character too: the offsets are of bytes
            assert complete_items(data[:cut], "blocks") == [end for end in ends if end <= cut]
        assert complete_items(data, "mode") == []  # not an array
        for spoiled in (b"", b"[]", b'{"blocks":{}}', b'{"mode" "x","blocks":[1]}',
                        b'{"mode":"x" "blocks":[1]}', b'{"blocks":[1;2]}'):
            assert complete_items(spoiled, "blocks") == [12] * (spoiled == b'{"blocks":[1;2]}')

    def test_too_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_json(b"[" * 100_000)
