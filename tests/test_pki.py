import os
from dataclasses import replace

import pytest

import ssisim.pki
from ssisim.errors import (
    BadProofOfPossession,
    ConfigError,
    UnknownApproval,
    UnknownRequest,
)
from ssisim.identity import generate_keypair
from ssisim.pki import (
    CertStatus,
    CertVerdict,
    CompromiseConfig,
    VerdictCause,
    build_hierarchy,
    ca_issue,
    issue_signed_certificate,
    make_csr,
    ra_approve,
    run_compromise_experiment,
    submit_csr,
    va_revoke,
    verify_certificate,
    verify_certificates,
)
from ssisim.runtime import DeterministicRng, LogicalClock

from conftest import flip_bit


@pytest.fixture
def clock():
    return LogicalClock(0)


@pytest.fixture
def hierarchy(clock):
    return build_hierarchy(rng=DeterministicRng(b"pki".ljust(32, b"\x00")), clock=clock)


def subject(tag: bytes):
    return generate_keypair(tag.ljust(32, b"\x00"))


class TestCsrFlow:
    def test_valid_csr_is_queued(self, hierarchy):
        rid = submit_csr(hierarchy, make_csr(subject(b"server-a"), "a.example"))
        assert rid >= 1

    def test_bad_proof_of_possession_rejected(self, hierarchy):
        csr = make_csr(subject(b"server-a"), "a.example")
        forged = replace(csr, subject_name="b.example")
        with pytest.raises(BadProofOfPossession):
            submit_csr(hierarchy, forged)

    def test_duplicate_subject_names_are_queued(self, hierarchy):
        # the RA policy decides at approval time, not at submission
        a = submit_csr(hierarchy, make_csr(subject(b"server-a"), "same.example"))
        b = submit_csr(hierarchy, make_csr(subject(b"server-b"), "same.example"))
        assert a != b

    def test_approve_unknown_request(self, hierarchy):
        with pytest.raises(UnknownRequest):
            ra_approve(hierarchy, 999)

    def test_double_approval_rejected(self, hierarchy):
        rid = submit_csr(hierarchy, make_csr(subject(b"server-a"), "a.example"))
        ra_approve(hierarchy, rid)
        with pytest.raises(UnknownRequest):
            ra_approve(hierarchy, rid)

    def test_issue_requires_approval(self, hierarchy, clock):
        from ssisim.pki import Approval

        with pytest.raises(UnknownApproval):
            ca_issue(hierarchy, Approval(request_id=999), clock)

    def test_a_pending_request_is_not_issued(self, hierarchy, clock):
        from ssisim.pki import Approval

        rid = submit_csr(hierarchy, make_csr(subject(b"server-a"), "a.example"))
        va = dict(hierarchy.va)
        with pytest.raises(UnknownApproval, match="is pending, not approved"):
            ca_issue(hierarchy, Approval(request_id=rid), clock)
        assert hierarchy.va == va
        assert ca_issue(hierarchy, ra_approve(hierarchy, rid), clock).serial == 3

    def test_revoking_an_unknown_serial_is_refused(self, hierarchy):
        va = dict(hierarchy.va)
        with pytest.raises(UnknownRequest):
            va_revoke(hierarchy, 99)
        assert hierarchy.va == va


class TestIssuanceAndVerification:
    def issue(self, hierarchy, clock, tag=b"server-a", name="a.example"):
        rid = submit_csr(hierarchy, make_csr(subject(tag), name))
        return ca_issue(hierarchy, ra_approve(hierarchy, rid), clock)

    def test_fresh_certificate_chains_to_root(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        assert cert.issuer_name == "issuing-ca"
        assert verify_certificate(hierarchy, cert, clock).valid

    def test_va_registers_new_serials_as_valid(self, hierarchy, clock):
        from ssisim.pki import CertStatus

        cert = self.issue(hierarchy, clock)
        assert hierarchy.va[cert.serial] is CertStatus.VALID

    def test_serials_are_distinct(self, hierarchy, clock):
        a = self.issue(hierarchy, clock, b"server-a", "a.example")
        b = self.issue(hierarchy, clock, b"server-b", "b.example")
        assert a.serial != b.serial

    def test_revoked_certificate_is_invalid(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        va_revoke(hierarchy, cert.serial)
        verdict = verify_certificate(hierarchy, cert, clock)
        assert (verdict.valid, verdict.cause) == (False, VerdictCause.REVOKED)

    def test_outside_signer_breaks_the_chain(self, hierarchy, clock):
        rogue = subject(b"rogue-ca")
        forged = issue_signed_certificate(
            "issuing-ca", rogue, serial=77, subject_name="evil.example",
            subject_public_key=subject(b"victim").public_key,
            not_before=0, not_after=1000,
        )
        verdict = verify_certificate(hierarchy, forged, clock)
        assert (verdict.valid, verdict.cause) == (False, VerdictCause.CHAIN_BROKEN)

    def test_unknown_issuer_name_breaks_the_chain(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        renamed = replace(cert, issuer_name="who-dis-ca")
        verdict = verify_certificate(hierarchy, renamed, clock)
        assert (verdict.valid, verdict.cause) == (False, VerdictCause.CHAIN_BROKEN)

    def test_expired_certificate_is_invalid(self, hierarchy, clock):
        cert = self.issue(hierarchy, clock)
        for _ in range(hierarchy.cert_lifetime + 1):
            clock.tick()
        verdict = verify_certificate(hierarchy, cert, clock)
        assert (verdict.valid, verdict.cause) == (False, VerdictCause.EXPIRED)

    def test_unregistered_serial_is_invalid(self, hierarchy, clock):
        ca = hierarchy.subordinate
        offbook = issue_signed_certificate(
            ca.name, ca.keypair, serial=424242, subject_name="offbook.example",
            subject_public_key=subject(b"victim").public_key,
            not_before=0, not_after=1000,
        )
        verdict = verify_certificate(hierarchy, offbook, clock)
        assert (verdict.valid, verdict.cause) == (False, VerdictCause.UNKNOWN_SERIAL)

    def test_removing_the_root_invalidates_everything(self, clock):
        # trust is anchored: the same certificates fail under a different root
        hierarchy = build_hierarchy(rng=DeterministicRng(b"pki".ljust(32, b"\x00")),
                                    clock=clock)
        certs = [self.issue(hierarchy, clock, bytes([i]), f"s{i}.example") for i in (1, 2, 3)]
        other = build_hierarchy(rng=DeterministicRng(b"other-root".ljust(32, b"\x00")),
                                clock=clock)
        other.va.update(hierarchy.va)  # even with the database shared, the chain fails
        for cert in certs:
            assert not verify_certificate(other, cert, clock).valid


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
        causes = [cause for _, cause in table]
        if request.param == "broken subordinate":
            self.break_subordinate(hierarchy)
            # only what the root issued itself still chains to it
            causes = [cause if cert.issuer_name == hierarchy.root.name
                      else VerdictCause.CHAIN_BROKEN for cert, cause in table]
        return certificates, [CertVerdict(valid=cause is None, cause=cause) for cause in causes]

    def test_the_table_gives_the_expected_single_verdicts(self, hierarchy, clock, cases):
        certificates, expected = cases
        assert [verify_certificate(hierarchy, cert, clock) for cert in certificates] == expected

    def test_a_batch_gives_the_single_verdicts(self, hierarchy, clock, cases, two_cpus):
        certificates, expected = cases
        assert verify_certificates(hierarchy, certificates, clock) == expected
        assert verify_certificates(hierarchy, certificates[::-1], clock) == expected[::-1]
        assert verify_certificates(hierarchy, [], clock) == []
        assert two_cpus == []

    def test_a_batch_split_over_two_cpus_gives_the_single_verdicts(self, hierarchy, clock,
                                                                   cases, two_cpus):
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
        assert len(two_cpus) == 1


class TestBatchedCompromiseRun:
    """The CA run issues its forgeries, then checks them in windows; its report is unchanged."""

    @staticmethod
    def serial_report(monkeypatch, forgeries):
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            return run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=forgeries))

    @pytest.mark.parametrize("forgeries, helpers", [(1000, 1), (255, 0)])
    def test_a_window_of_256_forgeries_or_more_forks_one_helper(self, two_cpus, monkeypatch,
                                                                forgeries, helpers):
        report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=forgeries))
        assert len(two_cpus) == helpers
        assert report.forged_accepted == forgeries
        assert report == self.serial_report(monkeypatch, forgeries)

    def test_windows_bound_each_batch(self, two_cpus, monkeypatch):
        batches = []
        real = ssisim.pki.verify_certificates

        def counted(hierarchy, certificates, clock):
            batches.append(len(certificates))
            return real(hierarchy, certificates, clock)

        with monkeypatch.context() as patch:
            patch.setattr(ssisim.pki, "verify_certificates", counted)
            patch.setattr(ssisim.pki, "_CHECK_WINDOW", 300)
            report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=1000))
        assert batches == [300, 300, 300, 100]
        assert len(two_cpus) == 3
        assert report == self.serial_report(monkeypatch, 1000)
