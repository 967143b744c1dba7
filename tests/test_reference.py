"""The independent MZV reference and the tail-bound audit it gates."""

import hashlib
import json
from decimal import Decimal, localcontext

import pytest

from mzv import clear_caches, series
from mzv.identities import admissible_indices
from mzv.indices import MzvIndex
from mzv.reference import AUDIT_TARGETS, DIGITS, audit, audit_mzvs, main, mzv_reference
from mzv.report import default_config, run_suite
from mzv.series import ShiftedPower

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _close(a, b, digits=DIGITS):
    return abs(a - b) <= Decimal(10) ** -digits


def test_reference_closed_forms():
    with localcontext() as ctx:
        ctx.prec = 60
        assert _close(mzv_reference(MzvIndex((2,))), PI**2 / 6)
        assert _close(mzv_reference(MzvIndex((4,))), PI**4 / 90)
        assert _close(mzv_reference(MzvIndex((1, 3))), PI**4 / 360)
        assert _close(mzv_reference(MzvIndex((2, 2))), (PI**4 / 36 - PI**4 / 90) / 2)
        assert _close(mzv_reference(MzvIndex((2, 2, 2))), PI**6 / 5040)
        # Euler: zeta(2,1) = zeta(3), and the sum formula at weight 4
        assert _close(mzv_reference(MzvIndex((1, 2))), mzv_reference(MzvIndex((3,))))
        depth2 = mzv_reference(MzvIndex((1, 3))) + mzv_reference(MzvIndex((2, 2)))
        assert _close(depth2, mzv_reference(MzvIndex((4,))))


def test_reference_rejects_divergent_indices():
    with pytest.raises(ValueError):
        mzv_reference(MzvIndex((2, 1)))


def _report(audits):
    worst = max(audits, key=lambda a: a.ratio)
    print(f"{len(audits)} audited, worst ratio {worst.ratio:.3f} at {worst.index} (target {worst.target:g})")
    return [a for a in audits if not a.holds]


def test_audit_weights_2_to_8_at_three_targets():
    indices = [k for w in range(2, 9) for k in admissible_indices(w)]
    assert len(indices) == 127
    # weight 10, where the fitted tail once claimed 5.79e-12 against an error of 6.59e-12
    indices.append(MzvIndex((4, 2, 1, 1, 2)))
    audits = audit_mzvs(indices, AUDIT_TARGETS)
    assert all(a.result.accuracy_met for a in audits)
    assert _report(audits) == []


def _verdict_fingerprint(records: list[dict]) -> str:
    """The first 16 hex digits of the sha256 of each record's identity,
    params and verdict, with every side's cutoff, mode, accuracy_met and flags."""
    rows = [
        [c["identity"], c["params"], c["pass"], [[s["cutoff"], s["mode"], s["accuracy_met"], s["flags"]] for s in c["sides"]]]
        for c in records
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def test_audit_every_mzv_of_the_packaged_suite(monkeypatch):
    results = {}
    cached = series._evaluate_cached

    def record(spec, target):
        results[spec] = cached(spec, target)
        return results[spec]

    clear_caches()
    monkeypatch.setattr(series, "_evaluate_cached", record)
    report = run_suite(default_config())
    assert report["summary"]["failed"] == 0
    # pin the suite's verdicts, cutoffs, modes and flags, not just its pass count
    assert len(report["checks"]) == 692
    assert _verdict_fingerprint(report["checks"]) == "4873bc54b44a916b"
    audits = []
    for spec, result in results.items():
        parts = []
        for bundle in spec.factors:
            if len(bundle) != 1 or not isinstance(bundle[0], ShiftedPower) or bundle[0].shift != 0:
                break
            parts.append(bundle[0].exponent)
        else:
            audits.append(audit(MzvIndex(tuple(parts)), result))
    assert len(audits) > 100
    assert _report(audits) == []


def test_audit_command(capsys):
    assert main(["--min-weight", "2", "--max-weight", "4"]) == 0
    out = capsys.readouterr().out
    assert "21 evaluations, 0 violations; worst ratio" in out
