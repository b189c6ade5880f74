"""The CLI reads canonical files only, and every file that loads re-exports to its exact bytes.

The four file inputs are the ledger, a wallet, a credential (.vc.json) and a
presentation (.vp.json). Each is read by one command here, run in process.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssisim.cli import main
from ssisim.credentials import Credential, Presentation
from ssisim.engine import verify_presentation
from ssisim.errors import KeyMismatch, ParseError, SsiSimError
from ssisim.ledger import Ledger
from ssisim.wallet import wallet_load, wallet_save

CHALLENGE = "ab" * 32
FILES = {"ledger": "ledger.json", "wallet": "alice.json", "vc": "cred.vc.json",
         "vp": "pres.vp.json"}
# The command that reads each file, and a text value in the file that the
# command takes as text: the lone-surrogate case replaces it with "\ud800".
READERS = {
    "ledger": (["ledger-validate", "{ledger}"], b"https://alice.example/agent"),
    "wallet": (["verify", "--presentation", "{vp}", "--challenge", CHALLENGE,
                "--ledger", "{ledger}", "--wallet", "{wallet}"], b"note"),
    "vc": (["present", "--wallet", "{wallet}", "--credential", "{vc}",
            "--challenge", CHALLENGE, "--out", "{out}"], b"plain-text"),
    "vp": (["verify", "--presentation", "{vp}", "--challenge", CHALLENGE,
            "--ledger", "{ledger}"], b"plain-text"),
}
# The re-export of each file; attributes are looked up when called.
LOADERS = {
    "ledger": (lambda data: Ledger.from_bytes(data), lambda ledger: ledger.to_bytes()),
    "wallet": (wallet_load, wallet_save),
    "vc": (lambda data: Credential.from_bytes(data), lambda record: record.to_bytes()),
    "vp": (lambda data: Presentation.from_bytes(data), lambda record: record.to_bytes()),
}


def quiet(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The four files of one issue-and-present flow; alice's wallet holds one blob."""
    root = tmp_path_factory.mktemp("files")
    paths = {key: str(root / name) for key, name in
             {**FILES, "op": "op.json", "issuer": "issuer.json"}.items()}
    for key, seed in (("op", "aa"), ("issuer", "bb"), ("wallet", "cc")):
        assert quiet("wallet-init", "--seed", seed * 32, "--wallet", paths[key])[0] == 0
    alice = wallet_load((root / FILES["wallet"]).read_bytes())
    alice.other_data.append(("note", b"A"))
    (root / FILES["wallet"]).write_bytes(wallet_save(alice))
    ledger = ("--ledger", paths["ledger"], "--writer-wallet", paths["op"])
    assert quiet("ledger-init", *ledger)[0] == 0
    assert quiet("did-register", "--wallet", paths["issuer"], *ledger)[0] == 0
    assert quiet("did-register", "--wallet", paths["wallet"], *ledger,
                 "--endpoint", "agent=https://alice.example/agent")[0] == 0
    code, out, _ = quiet("schema-define", "--wallet", paths["issuer"], *ledger,
                         "--name", "T", "--attr", "a")
    assert code == 0
    assert quiet("issue", "--wallet", paths["issuer"], *ledger,
                 "--schema-id", json.loads(out)["schema_id"], "--holder-did", str(alice.did),
                 "--value", "a=plain-text", "--out", paths["vc"])[0] == 0
    assert quiet("present", "--wallet", paths["wallet"], "--credential", paths["vc"],
                 "--challenge", CHALLENGE, "--out", paths["vp"])[0] == 0
    return {key: (root / name).read_bytes() for key, name in FILES.items()}


@pytest.fixture(scope="module")
def workdir(base, tmp_path_factory):
    root = tmp_path_factory.mktemp("work")
    for key, data in base.items():
        (root / FILES[key]).write_bytes(data)
    return root


def read_with(workdir, base, kind: str, data: bytes):
    """Run the command that reads a `kind` file holding data, the others as in base."""
    path = workdir / FILES[kind]
    path.write_bytes(data)
    names = {key: str(workdir / name) for key, name in FILES.items()}
    argv = [arg.format(**names, out=workdir / "out.vp.json") for arg in READERS[kind][0]]
    try:
        return quiet(*argv)
    finally:
        path.write_bytes(base[kind])


# --- structural edits -------------------------------------------------------------


class Obj(list):
    """A JSON object as its (key, value) pairs, so that an edit can repeat or reorder keys."""


class Raw(str):
    """JSON text written as it is."""


def dump(node, space: str = "") -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, Obj):
        return "{" + f",{space}".join(f"{dump(key)}:{space}{dump(value, space)}"
                                      for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + f",{space}".join(dump(value, space) for value in node) + "]"
    return json.dumps(node, ensure_ascii=False)


def tree(data: bytes):
    return json.loads(data, object_pairs_hook=Obj)


def containers(node):
    if isinstance(node, list):
        yield node
        for child in (value for _, value in node) if isinstance(node, Obj) else node:
            yield from containers(child)


def put(container, index: int, value) -> None:
    """Set the value at index; an object keeps the key."""
    container[index] = (container[index][0], value) if isinstance(container, Obj) else value


OTHER_VALUES = [0, 2**64, -1, 1.5, 1e400, "", "x", "00" * 32, [], Obj(), None, True]
TREE_EDITS = {
    "drop": lambda c, i, j, v: c.pop(i),
    "duplicate": lambda c, i, j, v: c.insert(j, c[i]),
    "reorder": lambda c, i, j, v: c.insert(j, c.pop(i)),
    "retype": lambda c, i, j, v: put(c, i, copy.deepcopy(v)),
    "surrogate": lambda c, i, j, v: put(c, i, Raw('"\\ud800"')),
}
TEXT_EDITS = ["pretty", "escape", "pad bits", "flip"]


def escape_char(text: str, which: int) -> str:
    """Write the first character of the `which`-th string (mod their count) as a \\u escape."""
    starts = [i + 1 for i in range(len(text) - 1) if text[i] == '"' and text[i + 1].isalnum()]
    if not starts:
        return text
    p = starts[which % len(starts)]
    return f"{text[:p]}\\u{ord(text[p]):04x}{text[p + 1:]}"


EDIT = st.one_of(
    st.tuples(st.sampled_from(sorted(TREE_EDITS)), st.integers(0, 10**6), st.integers(0, 10**6),
              st.integers(0, 10**6), st.sampled_from(OTHER_VALUES)),
    st.tuples(st.sampled_from(TEXT_EDITS), st.integers(0, 10**6), st.sampled_from([1, 0xFF])),
)


def edited(data: bytes, edits) -> bytes:
    root = tree(data)
    for name, *args in edits:
        if name in TREE_EDITS:
            which, i, j, value = args
            nonempty = [c for c in containers(root) if c]
            if not nonempty:
                continue
            container = nonempty[which % len(nonempty)]
            TREE_EDITS[name](container, i % len(container), j % len(container), value)
    names = {edit[0] for edit in edits}
    text = dump(root, "\n  " if "pretty" in names else "")
    for name, *args in edits:
        if name == "escape":
            text = escape_char(text, args[0])
        elif name == "pad bits":
            text = text.replace('"QQ=="', '"QR=="')
    out = text.encode("utf-8")
    for name, *args in edits:
        if name == "flip":
            position, mask = args
            position %= len(out)
            out = out[:position] + bytes([out[position] ^ mask]) + out[position + 1:]
    return out


def test_the_edits_write_the_base_files_back_unchanged(base):
    for data in base.values():
        assert edited(data, []) == data


# --- non-canonical forms ----------------------------------------------------------


def duplicate_first_key(data: bytes) -> bytes:
    root = tree(data)
    root.insert(0, root[0])
    return dump(root).encode()


NON_CANONICAL = {
    "pretty-printed": lambda data: dump(tree(data), "\n  ").encode(),
    "duplicate key": duplicate_first_key,
    "escaped": lambda data: escape_char(data.decode(), 0).encode(),
}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_every_file_reads_exit_0_as_written(workdir, base, kind):
    code, _, err = read_with(workdir, base, kind, base[kind])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("form", sorted(NON_CANONICAL))
@pytest.mark.parametrize("kind", sorted(FILES))
def test_a_non_canonical_file_exits_3(workdir, base, kind, form):
    data = NON_CANONICAL[form](base[kind])
    assert json.loads(data) == json.loads(base[kind])  # the same value, other bytes
    code, out, err = read_with(workdir, base, kind, data)
    assert (code, out) == (3, "")
    assert err.startswith("error: not canonical JSON: differs from its canonical form at byte ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", sorted(FILES))
def test_a_lone_surrogate_in_a_text_value_exits_3(workdir, base, kind):
    # Accepted as text, it was refused only when encoded: a UnicodeEncodeError traceback.
    site = READERS[kind][1]
    assert base[kind].count(site) == 1
    code, out, err = read_with(workdir, base, kind, base[kind].replace(site, b"\\ud800"))
    assert (code, out, err) == (3, "", "error: not valid JSON: a string holds a lone surrogate\n")


# --- fuzz -------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(FILES)), edits=st.lists(EDIT, min_size=1, max_size=3))
def test_any_structural_edit_maps_to_an_exit_code(workdir, base, kind, edits):
    data = edited(base[kind], edits)
    try:
        code, _, err = read_with(workdir, base, kind, data)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"reading {kind} edited by {edits!r} raised {exc!r}")
    assert type(code) is int and code in {0, 1, 2, 3}
    assert "Traceback" not in err
    load, export = LOADERS[kind]
    try:
        loaded = load(data)
    except SsiSimError:
        return
    assert export(loaded) == data


def mutations(data: bytes):
    for position in range(len(data)):
        for mask in (0x01, 0xFF):
            yield position, data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]


def test_every_byte_mutation_of_a_wallet_is_refused_or_reexports_exactly(base):
    data = base["wallet"]
    keys_end = data.index(b',"credentials":')  # did, public_key, private_key, key_id
    loaded_at = []
    for position, mutated in mutations(data):
        try:
            loaded = wallet_load(mutated)
        except (ParseError, KeyMismatch):
            continue
        assert wallet_save(loaded) == mutated
        loaded_at.append(position)
    # only the label and the blob are free text: "note" and "QQ=="
    assert loaded_at and min(loaded_at) > keys_end


def test_every_byte_mutation_of_a_presentation_is_refused_or_reexports_and_rejects(base):
    ledger = Ledger.from_bytes(base["ledger"])
    challenge = bytes.fromhex(CHALLENGE)
    assert verify_presentation(ledger, Presentation.from_bytes(base["vp"]), challenge).accepted
    parsed = 0
    for position, mutated in mutations(base["vp"]):
        try:
            presentation = Presentation.from_bytes(mutated)
        except ParseError:
            continue
        assert presentation.to_bytes() == mutated
        assert not verify_presentation(ledger, presentation, challenge).accepted, position
        parsed += 1
    assert parsed
