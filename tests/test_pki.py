import os
import pickle
import sys
from dataclasses import replace

import pytest

import ssisim.pki
import ssisim.verdicts
from ssisim.errors import ConfigError, Verdict
from ssisim.identity import generate_keypair
from ssisim.pki import (
    CERT_LIFETIME_TICKS,
    CertStatus,
    CompromiseConfig,
    CompromiseReport,
    VerdictCause,
    build_hierarchy,
    issue_signed_certificate,
    run_compromise_experiment,
    verify_certificate,
    verify_certificates,
)
from ssisim.runtime import DeterministicRng, LogicalClock

from conftest import flip_bit, wait_until_ended


@pytest.fixture
def clock():
    return LogicalClock(0)


@pytest.fixture
def hierarchy(clock):
    return build_hierarchy(rng=DeterministicRng(b"pki".ljust(32, b"\x00")), clock=clock)


_CHAIN_BROKEN = Verdict(ok=False, cause=VerdictCause.CHAIN_BROKEN, index=0)


def subject(tag: bytes):
    return generate_keypair(tag.ljust(32, b"\x00"))


class TestIssuanceAndVerification:
    @staticmethod
    def issue(hierarchy, clock, tag=b"server-a", name="a.example", ca=None):
        """A certificate from ca (the subordinate CA by default), its serial VALID at the VA."""
        ca, serial, now = ca or hierarchy.subordinate, hierarchy.next_serial(), clock.now()
        hierarchy.va[serial] = CertStatus.VALID
        return issue_signed_certificate(
            ca.name, ca.keypair, serial=serial, subject_name=name,
            subject_public_key=subject(tag).public_key,
            not_before=now, not_after=now + CERT_LIFETIME_TICKS,
        )

    def test_fresh_certificate_chains_to_root(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        assert cert.issuer_name == "issuing-ca"
        assert verify_certificate(hierarchy, cert, clock).ok

    def test_serials_are_distinct(self, hierarchy, clock):
        a = self.issue(hierarchy, clock, b"server-a", "a.example")
        b = self.issue(hierarchy, clock, b"server-b", "b.example")
        assert a.serial != b.serial

    def test_revoked_certificate_is_invalid(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        hierarchy.va[cert.serial] = CertStatus.REVOKED
        verdict = verify_certificate(hierarchy, cert, clock)
        assert (verdict.ok, verdict.cause) == (False, VerdictCause.REVOKED)

    def test_outside_signer_breaks_the_chain(self, hierarchy, clock):
        rogue = subject(b"rogue-ca")
        forged = issue_signed_certificate(
            "issuing-ca", rogue, serial=77, subject_name="evil.example",
            subject_public_key=subject(b"victim").public_key,
            not_before=0, not_after=1000,
        )
        verdict = verify_certificate(hierarchy, forged, clock)
        assert (verdict.ok, verdict.cause) == (False, VerdictCause.CHAIN_BROKEN)

    def test_unknown_issuer_name_breaks_the_chain(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        renamed = replace(cert, issuer_name="who-dis-ca")
        verdict = verify_certificate(hierarchy, renamed, clock)
        assert (verdict.ok, verdict.cause) == (False, VerdictCause.CHAIN_BROKEN)

    def test_expired_certificate_is_invalid(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        for _ in range(CERT_LIFETIME_TICKS + 1):
            clock.tick()
        verdict = verify_certificate(hierarchy, cert, clock)
        assert (verdict.ok, verdict.cause) == (False, VerdictCause.EXPIRED)

    def test_unregistered_serial_is_invalid(self, hierarchy, clock):
        ca = hierarchy.subordinate
        offbook = issue_signed_certificate(
            ca.name, ca.keypair, serial=424242, subject_name="offbook.example",
            subject_public_key=subject(b"victim").public_key,
            not_before=0, not_after=1000,
        )
        verdict = verify_certificate(hierarchy, offbook, clock)
        assert (verdict.ok, verdict.cause) == (False, VerdictCause.UNKNOWN_SERIAL)

    def test_removing_the_root_invalidates_everything(self, clock):
        # trust is anchored: the same certificates fail under a different root
        hierarchy = build_hierarchy(rng=DeterministicRng(b"pki".ljust(32, b"\x00")),
                                    clock=clock)
        certs = [self.issue(hierarchy, clock, bytes([i]), f"s{i}.example") for i in (1, 2, 3)]
        other = build_hierarchy(rng=DeterministicRng(b"other-root".ljust(32, b"\x00")),
                                clock=clock)
        other.va.update(hierarchy.va)  # even with the database shared, the chain fails
        for cert in certs:
            assert not verify_certificate(other, cert, clock).ok


class TestIssuingCaCertificate:
    """A certificate the subordinate issued is valid only while the subordinate's own
    certificate is: inside its window and valid at the VA (RFC 5280, section 6.1.3). The
    root is the trust anchor, and its own certificate is not checked."""

    @pytest.mark.parametrize("fault, now, cause", [("expired", 1200, VerdictCause.EXPIRED),
                                                   ("revoked", 900, VerdictCause.REVOKED)])
    def test_a_leaf_gets_the_verdict_on_its_issuing_ca(self, hierarchy, clock, fault, now,
                                                        cause):
        assert hierarchy.subordinate.certificate.not_after == CERT_LIFETIME_TICKS == 1000
        while clock.now() < 900:
            clock.tick()
        issue = TestIssuanceAndVerification.issue
        leaf = issue(hierarchy, clock)  # valid for ticks 900-1900
        by_root = issue(hierarchy, clock, b"server-r", "r.example", ca=hierarchy.root)
        if fault == "revoked":
            hierarchy.va[hierarchy.subordinate.certificate.serial] = CertStatus.REVOKED
        while clock.now() < now:
            clock.tick()
        refused, valid = Verdict(ok=False, cause=cause, index=1), Verdict(ok=True)
        assert verify_certificate(hierarchy, leaf, clock) == refused
        assert verify_certificate(hierarchy, by_root, clock) == valid
        assert verify_certificates(hierarchy, [leaf, by_root, leaf], clock) == [
            refused, valid, refused]

    @staticmethod
    def reissue_subordinate(hierarchy, serial=2, not_before=0, not_after=CERT_LIFETIME_TICKS):
        """Give the subordinate a new root-signed certificate for the same key."""
        root, sub = hierarchy.root, hierarchy.subordinate
        sub.certificate = issue_signed_certificate(
            root.name, root.keypair, serial=serial, subject_name=sub.name,
            subject_public_key=sub.keypair.public_key, not_before=not_before,
            not_after=not_after)

    @pytest.mark.parametrize("fault, cause", [("not yet valid", VerdictCause.NOT_YET_VALID),
                                              ("unknown serial", VerdictCause.UNKNOWN_SERIAL)])
    def test_each_other_fault_of_the_issuing_ca_reaches_its_leaves(self, hierarchy, clock,
                                                                    fault, cause):
        leaf = TestIssuanceAndVerification.issue(hierarchy, clock)  # valid for ticks 0-1000
        if fault == "not yet valid":
            self.reissue_subordinate(hierarchy, not_before=500)
        else:
            del hierarchy.va[hierarchy.subordinate.certificate.serial]
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(
            ok=False, cause=cause, index=1)

    def test_the_root_certificate_is_not_checked(self, hierarchy, clock):
        root = hierarchy.root.certificate
        while clock.now() < root.not_after - 100:
            clock.tick()
        by_root = TestIssuanceAndVerification.issue(hierarchy, clock, ca=hierarchy.root)
        hierarchy.va[root.serial] = CertStatus.REVOKED
        while clock.now() <= root.not_after:
            clock.tick()
        assert verify_certificate(hierarchy, by_root, clock) == Verdict(ok=True)

    def test_the_leaf_signature_is_checked_before_its_issuing_ca(self, hierarchy, clock):
        leaf = TestIssuanceAndVerification.issue(hierarchy, clock)
        forged = replace(leaf, issuer_signature=flip_bit(leaf.issuer_signature))
        hierarchy.va[hierarchy.subordinate.certificate.serial] = CertStatus.REVOKED
        assert verify_certificate(hierarchy, forged, clock) == _CHAIN_BROKEN
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(
            ok=False, cause=VerdictCause.REVOKED, index=1)

    def test_the_issuing_ca_is_checked_before_the_leaf_window(self, hierarchy, clock):
        sub = hierarchy.subordinate
        leaf = issue_signed_certificate(  # its window ends inside the subordinate's
            sub.name, sub.keypair, serial=hierarchy.next_serial(), subject_name="a.example",
            subject_public_key=subject(b"server-a").public_key, not_before=0, not_after=100)
        hierarchy.va[leaf.serial] = CertStatus.VALID
        while clock.now() <= leaf.not_after:
            clock.tick()
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(
            ok=False, cause=VerdictCause.EXPIRED, index=0)
        hierarchy.va[hierarchy.subordinate.certificate.serial] = CertStatus.REVOKED
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(
            ok=False, cause=VerdictCause.REVOKED, index=1)

    def test_each_issuing_ca_is_checked_once_per_call(self, hierarchy, clock, monkeypatch):
        issue = TestIssuanceAndVerification.issue
        leaves = [issue(hierarchy, clock, bytes([i]), f"s{i}.example") for i in range(5)]
        leaves += [issue(hierarchy, clock, b"server-r", "r.example", ca=hierarchy.root)] * 2
        checked = []  # the serial of each certificate whose window and status were read

        def counted(hierarchy, certificate, now):
            checked.append(certificate.serial)
            return window_and_status(hierarchy, certificate, now)

        window_and_status = ssisim.pki._window_and_status
        monkeypatch.setattr(ssisim.pki, "_window_and_status", counted)
        ca_serial = hierarchy.subordinate.certificate.serial
        for _ in range(2):
            checked.clear()
            assert all(v.ok for v in verify_certificates(hierarchy, leaves, clock))
            assert checked.count(ca_serial) == 1
            assert sorted(checked) == sorted([ca_serial] + [leaf.serial for leaf in leaves])

    def test_a_reinstated_issuing_ca_revives_its_leaves(self, hierarchy, clock):
        leaf = TestIssuanceAndVerification.issue(hierarchy, clock)
        serial = hierarchy.subordinate.certificate.serial
        hierarchy.va[serial] = CertStatus.REVOKED
        assert not verify_certificate(hierarchy, leaf, clock).ok
        hierarchy.va[serial] = CertStatus.VALID
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(ok=True)

    def test_a_renewed_issuing_ca_certificate_revives_its_leaves(self, hierarchy, clock):
        while clock.now() < 900:
            clock.tick()
        leaf = TestIssuanceAndVerification.issue(hierarchy, clock)  # valid for ticks 900-1900
        while clock.now() < 1200:
            clock.tick()
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(
            ok=False, cause=VerdictCause.EXPIRED, index=1)
        serial = hierarchy.next_serial()
        hierarchy.va[serial] = CertStatus.VALID
        self.reissue_subordinate(hierarchy, serial=serial, not_before=1000, not_after=2000)
        assert verify_certificate(hierarchy, leaf, clock) == Verdict(ok=True)


class TestHierarchy:
    def test_the_va_starts_with_the_two_ca_serials(self, hierarchy):
        root, sub = hierarchy.root.certificate, hierarchy.subordinate.certificate
        assert (root.serial, sub.serial) == (1, 2)
        assert hierarchy.va == {1: CertStatus.VALID, 2: CertStatus.VALID}
        assert [hierarchy.next_serial() for _ in range(3)] == [3, 4, 5]
        assert len(hierarchy.va) == 2  # a serial is drawn, not registered

    def test_node_by_name_knows_the_two_cas_only(self, hierarchy):
        assert hierarchy.node_by_name("root-ca") is hierarchy.root
        assert hierarchy.node_by_name("issuing-ca") is hierarchy.subordinate
        assert hierarchy.node_by_name("who-dis-ca") is None


class TestCompromiseExperiment:
    def test_ca_compromise_accepts_every_forgery(self):
        report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=20))
        assert report.forged_accepted == 20
        assert report.forged_rejected == 0
        assert report.total_forgeries == 20

    def test_single_writer_compromise_accepts_nothing(self):
        report = run_compromise_experiment(
            CompromiseConfig(scenario="ledger", forgeries=20, writers=3, compromised=1))
        assert report.forged_accepted == 0
        assert report.forged_rejected == 20

    def test_zero_forgeries_gives_a_zero_report(self):
        for scenario in ("ca", "ledger"):
            report = run_compromise_experiment(
                CompromiseConfig(scenario=scenario, forgeries=0))
            assert (report.forged_accepted, report.forged_rejected,
                    report.total_forgeries) == (0, 0, 0)

    def test_report_counts_are_consistent(self):
        for scenario in ("ca", "ledger"):
            for forgeries in (1, 5, 20):
                report = run_compromise_experiment(
                    CompromiseConfig(scenario=scenario, forgeries=forgeries))
                assert report.forged_accepted + report.forged_rejected == report.total_forgeries

    def test_ledger_chain_stays_valid_but_registry_is_unmoved(self):
        # the forged blocks are block-level valid, which is exactly the point:
        # acceptance is decided by read-time self-certification, not by the chain
        report = run_compromise_experiment(
            CompromiseConfig(scenario="ledger", forgeries=5, writers=3, compromised=2))
        assert report.forged_accepted == 0

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            run_compromise_experiment(CompromiseConfig(scenario="dns", forgeries=1))
        with pytest.raises(ConfigError):
            run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=-1))
        with pytest.raises(ConfigError):
            run_compromise_experiment(
                CompromiseConfig(scenario="ledger", forgeries=1, writers=2, compromised=3))


class TestBatchVerification:
    """verify_certificates gives each certificate verify_certificate's verdict, in order."""

    NOW = 50

    @classmethod
    def table(cls, hierarchy, clock):
        """(certificate, expected cause, None if valid) for each case, with the clock at NOW:
        one per VerdictCause, a valid certificate, one the root issued, and two that fail
        more than one check, to pin the order of the checks."""
        while clock.now() < cls.NOW:
            clock.tick()
        sub, root = hierarchy.subordinate, hierarchy.root

        def signed(issuer_name, signer, not_before=0, not_after=1000, status=CertStatus.VALID):
            serial = hierarchy.next_serial()
            cert = issue_signed_certificate(
                issuer_name, signer, serial=serial, subject_name=f"s{serial}.example",
                subject_public_key=subject(b"victim").public_key,
                not_before=not_before, not_after=not_after,
            )
            if status is not None:
                hierarchy.va[cert.serial] = status
            return cert

        revoked = CertStatus.REVOKED
        return [
            (signed(sub.name, sub.keypair), None),
            (signed(root.name, root.keypair), None),
            (signed(sub.name, subject(b"rogue-ca")), VerdictCause.CHAIN_BROKEN),
            (signed("who-dis-ca", sub.keypair), VerdictCause.CHAIN_BROKEN),
            (signed(sub.name, sub.keypair, not_before=cls.NOW + 1), VerdictCause.NOT_YET_VALID),
            (signed(sub.name, sub.keypair, not_after=cls.NOW - 1), VerdictCause.EXPIRED),
            (signed(sub.name, sub.keypair, status=None), VerdictCause.UNKNOWN_SERIAL),
            (signed(sub.name, sub.keypair, status=revoked), VerdictCause.REVOKED),
            (signed(sub.name, sub.keypair, not_after=cls.NOW - 1, status=revoked),
             VerdictCause.EXPIRED),
            (signed(sub.name, subject(b"rogue-ca"), not_before=cls.NOW + 1, status=None),
             VerdictCause.CHAIN_BROKEN),
        ]

    @staticmethod
    def break_subordinate(hierarchy):
        """Leave the subordinate's own certificate with a signature the root did not make."""
        cert = hierarchy.subordinate.certificate
        hierarchy.subordinate.certificate = replace(
            cert, issuer_signature=flip_bit(cert.issuer_signature))

    @pytest.fixture(params=["root-signed subordinate", "broken subordinate"])
    def cases(self, request, hierarchy, clock):
        """(certificates, the verdicts expected on them)."""
        table = self.table(hierarchy, clock)
        certificates = [cert for cert, _ in table]
        verdicts = [Verdict(ok=cause is None, cause=cause, index=None if cause is None else 0)
                    for _, cause in table]
        if request.param == "broken subordinate":
            self.break_subordinate(hierarchy)
            # only what the root issued itself still chains to it; a certificate whose own
            # signature or issuer fails is refused for itself first
            broken = Verdict(ok=False, cause=VerdictCause.CHAIN_BROKEN, index=1)
            verdicts = [verdict if cert.issuer_name == hierarchy.root.name
                        or verdict.cause is VerdictCause.CHAIN_BROKEN else broken
                        for cert, verdict in zip(certificates, verdicts)]
        return certificates, verdicts

    def test_the_table_gives_the_expected_single_verdicts(self, hierarchy, clock, cases):
        certificates, expected = cases
        assert [verify_certificate(hierarchy, cert, clock) for cert in certificates] == expected

    def test_a_batch_gives_the_single_verdicts(self, hierarchy, clock, cases, two_cpus):
        certificates, expected = cases
        assert verify_certificates(hierarchy, certificates, clock) == expected
        assert verify_certificates(hierarchy, certificates[::-1], clock) == expected[::-1]
        assert verify_certificates(hierarchy, [], clock) == []
        assert two_cpus == []

    def test_a_batch_of_two_chunks_forks_nothing(self, hierarchy, clock, cases, two_cpus):
        certificates, expected = cases
        sub = hierarchy.subordinate
        padding = [issue_signed_certificate(
            sub.name, sub.keypair, serial=hierarchy.next_serial(), subject_name=f"pad-{i}",
            subject_public_key=subject(b"victim").public_key, not_before=0, not_after=1000,
        ) for i in range(256)]
        for cert in padding:
            hierarchy.va[cert.serial] = CertStatus.VALID
        padded = certificates + padding + certificates  # the table in both chunks
        singles = [verify_certificate(hierarchy, cert, clock) for cert in padded]
        assert singles[:len(expected)] == singles[-len(expected):] == expected
        assert verify_certificates(hierarchy, padded, clock) == singles
        assert two_cpus == []


class TestSplitCompromiseRun:
    """The CA run splits each window over the CPUs once, and each chunk forges and checks
    its certificates; its report and certificates are those of forging each in turn in
    one process."""

    @staticmethod
    def forged_in_turn(forgeries):
        """The run's forged certificates, each forged as its seed and serial are drawn."""
        rng = DeterministicRng(CompromiseConfig.seed)
        hierarchy = build_hierarchy(rng=rng)
        stolen, forged = hierarchy.subordinate, []
        for i in range(forgeries):
            mallory = generate_keypair(rng.randbytes(32))
            forged.append(issue_signed_certificate(
                stolen.name, stolen.keypair, serial=hierarchy.next_serial(),
                subject_name=f"forged-subject-{i}", subject_public_key=mallory.public_key,
                not_before=0, not_after=CERT_LIFETIME_TICKS,
            ))
        return forged

    @staticmethod
    def run(monkeypatch, tmp_path, forgeries):
        """(The run's report, the (pid, certificates) of each check in serial order.)

        Each check writes its certificates to a file of its own, so a helper's
        checks are seen too; a helper killed while it writes one leaves no file.
        """
        log = tmp_path / "checks"
        log.mkdir()
        real = ssisim.pki.verify_certificates

        def recorded(hierarchy, certificates, clock):
            record = log / f"{certificates[0].serial:08d}-{os.getpid()}"
            partial = tmp_path / record.name
            partial.write_bytes(pickle.dumps(certificates))
            partial.rename(record)
            return real(hierarchy, certificates, clock)

        with monkeypatch.context() as patch:
            patch.setattr(ssisim.pki, "verify_certificates", recorded)
            report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=forgeries))
        return report, [(int(record.name.split("-")[1]), pickle.loads(record.read_bytes()))
                        for record in sorted(log.iterdir())]

    @staticmethod
    def assert_checks(checks, windows, helpers):
        """Each window is checked in serial order: here in one call if it is under 256 or
        helpers is None; else the helper (its pid from helpers) checks one certificate at
        a time from the front, in order, and this process checks contiguous bites from the
        back, each at most half of what was unanswered when it was taken; together they
        check every certificate."""
        pids, here, checks = iter(helpers or ()), os.getpid(), list(checks)
        for window in windows:
            if helpers is None or len(window) < 256:
                assert checks.pop(0) == (here, window)
                continue
            helper = next(pids)
            calls = {here: [], helper: []}
            while checks and checks[0][1][0].serial <= window[-1].serial:
                pid, certificates = checks.pop(0)
                calls[pid].append(certificates)
            assert all(len(certificates) == 1 for certificates in calls[helper])
            answered = [certificate for (certificate,) in calls[helper]]
            assert answered == window[:len(answered)]
            end = len(window)
            for bite in reversed(calls[here]):  # checks sort by their first serial
                assert 0 < len(bite) <= max(1, end // 2)
                assert bite == window[end - len(bite):end]
                end -= len(bite)
            assert len(answered) >= end
        assert checks == []

    @staticmethod
    def all_accepted(forgeries):
        return CompromiseReport(scenario="ca-compromise", forged_accepted=forgeries,
                                forged_rejected=0, total_forgeries=forgeries)

    @pytest.mark.parametrize("forgeries", [0, 255, 256, 1000])
    def test_certificates_are_the_serial_ones(self, helpers, monkeypatch, tmp_path, forgeries):
        report, checks = self.run(monkeypatch, tmp_path, forgeries)
        assert report == self.all_accepted(forgeries)
        windows = [self.forged_in_turn(forgeries)] if forgeries else []
        self.assert_checks(checks, windows, helpers)
        if helpers is not None:  # one helper, which forges and checks from the front
            assert len(helpers) == (forgeries >= 256)

    @pytest.mark.parametrize("window, forgeries", [(300, 1000), (256, 513), (255, 510)])
    def test_window_edges_keep_the_serial_certificates(self, helpers, monkeypatch, tmp_path,
                                                       window, forgeries):
        monkeypatch.setattr(ssisim.pki, "_CHECK_WINDOW", window)
        report, checks = self.run(monkeypatch, tmp_path, forgeries)
        assert report == self.all_accepted(forgeries)
        serial = self.forged_in_turn(forgeries)
        windows = [serial[at:at + window] for at in range(0, forgeries, window)]
        self.assert_checks(checks, windows, helpers)
        if helpers is not None:
            assert len(helpers) == sum(len(w) >= 256 for w in windows)

    def test_windows_bound_each_batch(self, two_cpus, monkeypatch, tmp_path):
        monkeypatch.setattr(ssisim.pki, "_CHECK_WINDOW", 300)
        report, checks = self.run(monkeypatch, tmp_path, 1000)
        serial = self.forged_in_turn(1000)
        window_of = {cert.serial: at // 300 for at, cert in enumerate(serial)}
        # no check spans two windows; a split window's checks take at most half of it
        # here, and the last window, too short to split, is one check here
        for _, certificates in checks:
            assert len({window_of[cert.serial] for cert in certificates}) == 1
        assert max(len(c) for _, c in checks[:-1]) <= 150
        assert checks[-1] == (os.getpid(), serial[900:])
        assert len(two_cpus) == 3
        assert report == self.all_accepted(1000)

    @pytest.mark.parametrize("failure, answered", [("fork raises", 0), ("raises", 0),
                                                   ("exits non-zero", 0),
                                                   ("answers short", 10),
                                                   ("exits 0 with garbage", 0)])
    def test_a_failing_forger_changes_no_byte(self, two_cpus, monkeypatch, tmp_path, failure,
                                              answered):
        if failure == "fork raises":
            def fork():
                raise OSError("no process left")

            monkeypatch.setattr(os, "fork", fork)
        else:
            # The helper's check of its first forgery answers a well-formed rejection (or
            # the byte 7) and its second fails; or it answers ten and exits 0 at the 11th.
            # This process's first check waits until the helper has ended.
            parent, real, calls = os.getpid(), ssisim.pki.verify_certificates, []

            def verify_certificates(hierarchy, certificates, clock):
                if os.getpid() == parent:
                    wait_until_ended(two_cpus[0])
                    return real(hierarchy, certificates, clock)
                calls.append(certificates)
                verdicts = real(hierarchy, certificates, clock)
                if failure == "answers short":
                    if len(calls) > 10:
                        os._exit(0)
                    return verdicts
                if len(calls) > 1:
                    if failure == "raises":
                        raise RuntimeError("forger failed")
                    os._exit(3 if failure == "exits non-zero" else 0)
                return [replace(verdicts[0], ok=7 if failure == "exits 0 with garbage" else False)]

            monkeypatch.setattr(ssisim.pki, "verify_certificates", verify_certificates)
        report, checks = self.run(monkeypatch, tmp_path, 1000)
        assert report == self.all_accepted(1000)
        forged = self.forged_in_turn(1000)
        here = [cert for pid, certificates in checks if pid == os.getpid()
                for cert in certificates]
        # every certificate in process, but for the helper's answers that count
        assert here == forged[answered:]
        helper = [certificates for pid, certificates in checks if pid != os.getpid()]
        if failure == "fork raises":
            assert helper == two_cpus == []
        else:  # one check a forgery, up to the one it failed in
            failed_in = 11 if failure == "answers short" else 2
            assert helper == [[cert] for cert in forged[:failed_in]]
            assert len(two_cpus) == 1

    def test_no_helper_forks_again(self, fork_log, two_cpus, monkeypatch, tmp_path):
        splits, real_split_each = tmp_path / "splits", ssisim.verdicts.split_each
        for module, name in ((ssisim.pki, "split_each"), (ssisim.verdicts, "split_each"),
                             (ssisim.verdicts, "start_split")):
            real = getattr(module, name)

            def logged(work, items, real=real):
                """Log every split, a helper's too; the start_split that split_each makes
                for its own items is the same split."""
                if sys._getframe(1).f_code is not real_split_each.__code__:
                    with open(splits, "a") as out:
                        out.write(f"{os.getpid()}:{len(items)}\n")
                return real(work, items)

            monkeypatch.setattr(module, name, logged)
        report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=1000))
        assert report == self.all_accepted(1000)
        parent = os.getpid()
        assert splits.read_text().split() == [f"{parent}:1000"]
        assert fork_log.read_text().split() == [str(parent)]
