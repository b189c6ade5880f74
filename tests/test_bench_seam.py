"""The benchmark tracer (bench/tracer.py) still finds every ssisim function it wraps.

`python3 bench/run.py --trace 1` wraps its TARGETS by module and qualified name,
so a rename in ssisim would break it; this test catches that in the tier-1 suite.
"""

import importlib
from pathlib import Path

import ssisim

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
