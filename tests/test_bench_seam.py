"""The benchmark tracer (bench/tracer.py) still finds every ssisim function it wraps.

`python3 bench/run.py --trace 1` wraps its TARGETS by module and qualified name,
and its hooks read fields of their results, so a rename in ssisim, or a result
type that loses a field a hook reads, would break it; these tests catch that in
the tier-1 suite.
"""

import importlib
from pathlib import Path

import pytest

import ssisim
from ssisim.errors import DuplicateSchema
from ssisim.identity import derive_did

from conftest import tampered

ROOT = Path(__file__).resolve().parents[1]


def resolve(module: str, qualname: str):
    owner = importlib.import_module(f"ssisim.{module}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_tracer_installs_over_every_target_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.tracer import TARGETS, Tracer

    assert Path(ssisim.__file__).resolve().parent == ROOT / "src" / "ssisim"
    originals = [resolve(module, qualname) for module, qualname, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [resolve(module, qualname) for module, qualname, _ in TARGETS]
        tracer.active = True
        # a call through an import site (ledger imported verify from identity) is traced
        ssisim.ledger.verify(bytes(32), b"", bytes(64))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(wrapped, originals))
    assert [resolve(module, qualname) for module, qualname, _ in TARGETS] == originals
    assert tracer.per_function()["identity.verify"][0] == 1
    assert tracer.counters == {"identity.verify.false": 1}


def test_each_hook_counts_what_its_target_answers(monkeypatch, ledger, issuer, holder):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.tracer import Tracer

    engine = ssisim.engine
    schema = engine.define_schema(issuer, "T", 1, ["a"], ledger)
    credential = engine.issue_credential(issuer, derive_did(holder.public_key), schema,
                                         {"a": "1"}, ledger)
    presentation = ssisim.credentials.create_presentation(credential, ["a"], b"\x01" * 32, holder)
    data = ledger.to_bytes()
    tracer = Tracer()
    tracer.install()

    def counts(call) -> dict:
        """The counters that one traced call moved, by how much."""
        before = dict(tracer.counters)
        tracer.active = True
        try:
            call()
        finally:
            tracer.active = False
        return {key: n - before.get(key, 0) for key, n in tracer.counters.items()
                if n != before.get(key, 0)}

    def refused_append():
        with pytest.raises(DuplicateSchema):
            engine.define_schema(issuer, "T", 1, ["a"], ledger)

    try:
        valid = counts(ledger.validate_chain)
        broken = counts(tampered(ledger, signatures=(2,)).validate_chain)
        refused = counts(refused_append)
        rejected = counts(lambda: engine.verify_presentation(ledger, presentation, b"\x02" * 32))
        written = counts(ledger.to_bytes)
        parsed = counts(lambda: ssisim.serialization.load_json(data))
        forged = counts(lambda: ssisim.identity.verify(bytes(32), b"", bytes(64)))
    finally:
        tracer.uninstall()
    assert valid["ledger.Ledger.validate_chain.blocks"] == len(ledger.blocks) == 4
    assert broken["ledger.Ledger.validate_chain.blocks"] == 3
    assert refused["ledger.RegistryState.check.rejected"] == 1
    assert rejected["engine.verify_presentation.reject.challenge_match"] == 1
    assert written == {"ledger.Ledger.to_bytes.bytes": len(data),
                       "ledger.Ledger.to_bytes.blocks": len(ledger.blocks)}
    assert parsed == {"serialization.load_json.bytes": len(data)}
    assert forged == {"identity.verify.false": 1}
