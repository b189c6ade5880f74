"""Span tracer that wraps ssisim's public functions from outside the program.

Modules bind names at import time (``from .identity import verify``), so a
function is replaced in every ``ssisim`` module namespace that holds it, not
only in the module that defines it. Methods are replaced on their class.

Spans live in flat arrays in memory (parent index, name index, start and end
in ``perf_counter_ns``); span ``i`` is the ``i``-th call that started. Self
time is a span's duration minus the time its direct children cover. Extra
counters (bytes parsed, failed verifications, ...) are added by small
per-function hooks that look at the arguments and the result.
"""

import gzip
import importlib
import statistics
import sys
from array import array
from time import perf_counter_ns

# (module, qualname, hook). A hook is hook(args, result, add) where add(key, n)
# bumps the counter "<module>.<qualname>.<key>".
TARGETS = [
    ("serialization", "load_json", lambda a, r, add: add("bytes", len(a[0]))),
    ("serialization", "canonical_json_bytes", None),
    ("serialization", "encode_parts", None),
    ("identity", "sign", None),
    ("identity", "verify", lambda a, r, add: add("false", r is False)),
    ("identity", "derive_did", None),
    ("identity", "DidDocument.verify_self", None),
    ("identity", "encrypt_for", None),
    ("identity", "decrypt", None),
    ("identity", "generate_keypair", None),
    ("ledger", "Ledger.from_bytes", None),
    ("ledger", "Ledger.validate_chain",
     lambda a, r, add: add("blocks", len(a[0].blocks) if r.ok else r.index + 1)),
    ("ledger", "RegistryState.check", lambda a, r, add: add("rejected", r is not None)),
    ("ledger", "RegistryState.copy", None),
    ("ledger", "Ledger.append_block", None),
    ("ledger", "Ledger.to_bytes",
     lambda a, r, add: (add("bytes", len(r)), add("blocks", len(a[0].blocks)))),
    ("ledger", "Ledger.resolve_did", None),
    ("ledger", "Ledger.lookup_schema", None),
    ("ledger", "Ledger.credential_status", None),
    ("ledger", "Ledger.credential_anchor", None),
    ("credentials", "build_credential", None),
    ("credentials", "create_presentation", None),
    ("credentials", "revealed_proofs_ok", None),
    ("credentials", "credential_commitments_ok", None),
    ("merkle", "merkle_root", None),
    ("merkle", "merkle_path", None),
    ("merkle", "verify_path", None),
    ("engine", "issue_credential", None),
    ("engine", "verify_presentation",
     lambda a, r, add: add("reject." + r.reject_cause, 1) if r.reject_cause else None),
    ("engine", "revoke_credential", None),
    ("engine", "define_schema", None),
    ("engine", "tamper_check", None),
    ("wallet", "wallet_create", None),
    ("wallet", "wallet_load", None),
    ("wallet", "wallet_save", None),
    ("agents", "Agent.send_message", None),
    ("agents", "Agent.open_envelope", None),
    ("agents", "Agent.receive_credential", None),
    ("agents", "MessageBus.deliver", None),
    ("pki", "verify_certificate", None),
    ("pki", "issue_signed_certificate", None),
    ("pki", "build_hierarchy", None),
    ("pki", "run_compromise_experiment", None),
    ("scenarios", "run_healthcare_scenario", None),
    ("scenarios", "run_government_scenario", None),
    ("cli", "main", None),
]

# The causes verify_presentation can name, in its check order.
REJECT_CAUSES = ("schema_known", "status_active", "issuer_signature", "merkle_proofs",
                 "challenge_match", "holder_signature")

SPAN_NAMES = [f"{module}.{qualname}" for module, qualname, _ in TARGETS]


class Tracer:
    """Install with install(), record while ``active``, restore with uninstall()."""

    def __init__(self):
        self.active = False
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict = {}
        self._stack = [-1]
        self._restore = []

    # -- wrapping

    def install(self) -> None:
        # Import every module first so the namespace scan below sees all of them.
        for module, _, _ in TARGETS:
            importlib.import_module(f"ssisim.{module}")
        for index, (module, qualname, hook) in enumerate(TARGETS):
            mod = sys.modules[f"ssisim.{module}"]
            owner = mod
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(raw.__func__, index, hook)))
                continue
            wrapper = self._wrap(raw, index, hook)
            self._replace(owner, attr, wrapper)
            if owner is mod:
                for name, other in list(sys.modules.items()):
                    if other is None or not (name == "ssisim" or name.startswith("ssisim.")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is raw and (other, key) != (owner, attr):
                            self._replace(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, index: int, hook):
        prefix = SPAN_NAMES[index] + "."
        counters = self.counters
        stack = self._stack
        parent, name, start, end = self.parent, self.name, self.start, self.end

        def add(key, n):
            counters[prefix + key] = counters.get(prefix + key, 0) + int(n)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(name)
            parent.append(stack[-1])
            name.append(index)
            start.append(0)
            end.append(0)
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                start[span] = t0
                stack.pop()
            if hook is not None:
                hook(args, result, add)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    # -- results

    def span_count(self) -> int:
        return len(self.name)

    def self_times_ns(self, first: int = 0, last: int | None = None) -> list:
        """Self time of each span in [first, last), by span index."""
        last = len(self.name) if last is None else last
        own = [self.end[i] - self.start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= self.end[i] - self.start[i]
        return own

    def per_function(self) -> dict:
        """{span name: (calls, self_ns)} over every span."""
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i, own in enumerate(self.self_times_ns()):
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += own
        return {SPAN_NAMES[k]: (calls[k], self_ns[k]) for k in range(len(SPAN_NAMES))}

    def child_counts(self, parent_name: str, child_name: str) -> list:
        """For each span named parent_name, in start order, its direct children named child_name."""
        p_index, c_index = SPAN_NAMES.index(parent_name), SPAN_NAMES.index(child_name)
        counts = {i: 0 for i in range(len(self.name)) if self.name[i] == p_index}
        for i in range(len(self.name)):
            if self.name[i] == c_index and self.parent[i] in counts:
                counts[self.parent[i]] += 1
        return [counts[i] for i in sorted(counts)]

    def write(self, path) -> None:
        """Write spans as gzip CSV: id,parent,root,name,start_ns,end_ns."""
        root = array("q", [0]) * len(self.name)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,root,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                out.write(f"{i},{p},{root[i]},{SPAN_NAMES[self.name[i]]},"
                          f"{self.start[i]},{self.end[i]}\n")


def overhead_ns_per_span(samples: int = 20000) -> float:
    """Median extra cost of one traced call over a bare call, in ns."""
    tracer = Tracer()

    def bare(x):
        return x

    wrapped = tracer._wrap(bare, 0, None)
    tracer.active = True
    rounds = []
    for _ in range(5):
        t0 = perf_counter_ns()
        for i in range(samples):
            bare(i)
        t1 = perf_counter_ns()
        for i in range(samples):
            wrapped(i)
        t2 = perf_counter_ns()
        rounds.append(((t2 - t1) - (t1 - t0)) / samples)
        del tracer.name[:], tracer.parent[:], tracer.start[:], tracer.end[:]
    return statistics.median(rounds)
