"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (visible with `pytest -s`, and in
the captured output on failure).  The grids and bounds here are the
authoritative ones; the CLI `verify` command runs the same suites with the
same defaults.
"""

from tcores.corners import corners, q_k
from tcores.littlewood import core_offsets, decompose
from tcores.partitions import Partition, hook_lengths, hook_multiset_mod
from tcores.suites import (
    SuiteReport,
    _increment_checks,
    _Recorder,
    _square_identity_checks,
    averages_suite,
    bijection_suite,
    fundamental_suite,
    operators_suite,
    polynomiality_suite,
)

EMPTY = Partition()


def _finish(num: int, name: str, rep: SuiteReport) -> None:
    status = "PASS" if rep.ok else "FAIL"
    print(
        f"[criterion {num}] {name}: {status} "
        f"({rep.checks} checks, {rep.failures} failures, {rep.wall_time_s:.1f}s)"
    )
    assert rep.ok, rep.first_failure


def test_criterion_1_bijection():
    rep = bijection_suite(max_size=20, ts=(1, 2, 3, 4, 5))
    _finish(1, "bijection (|lam| <= 20, t in 1..5)", rep)


def test_criterion_2_running_examples():
    rec = _Recorder("running-examples", {})
    dec = decompose(Partition((18, 7, 6)), 3)
    rec.check("core", dec.core, Partition((3, 1)))
    rec.check("quotients", dec.quotients, (Partition((2,)), EMPTY, Partition((5, 2))))

    lam = Partition((6, 3, 2, 2))
    rec.check("hooks", list(hook_lengths(lam)), [9, 8, 5, 3, 2, 1, 5, 4, 1, 3, 2, 2, 1])
    rec.check("7-core", hook_multiset_mod(lam, 7, {0}), [])
    rec.check("corners-x", corners(lam).x, (-4, 0, 2, 6))
    rec.check("corners-y", corners(lam).y, (-2, 1, 5))
    rec.check("q1", q_k(lam, 1), 0)
    rec.check("q2", q_k(lam, 2), 26)

    off = core_offsets(Partition((5, 3, 1, 1)), 3)
    rec.check("b", off.b, (0, 7, -4))
    rec.check("d", off.d, (0, 2, -2))
    rec.check("sum-d", sum(off.d), 0)
    _finish(2, "running examples", rec.done())


def test_criterion_3_hook_formula():
    rep = fundamental_suite(max_size=12, square_max=8)
    _finish(3, "hook formula vs SYT oracle (|lam| <= 12) and sum f^2 = n! (n <= 8)", rep)


def test_criterion_4_operator_identities():
    rep = operators_suite(dG_size=14, dG_ts=(1, 2, 3, 4), n_max=4, ts=(1, 2, 3), eq11_n=5)
    _finish(4, "operator identities (D(G)=0, sum FG=1, t^n identity, transforms)", rep)


def test_criterion_5_per_partition_identities():
    rec = _Recorder("per-partition", {"max_size": 18, "t": [2, 3, 4], "layer_n": 3})
    _square_identity_checks(rec, max_size=18, ts=(2, 3, 4), layer_n=3)
    _finish(5, "per-partition square identities (|lam| <= 18, cores (1),(2),(5,3,1,1))", rec.done())


def test_criterion_6_closed_form_averages():
    rep = averages_suite(ts=(2, 3), n_max=4)
    _finish(6, "closed-form averages (t in {2,3}, n <= 4, core grid)", rep)


def test_criterion_7_increment_formulas():
    rec = _Recorder("increments", {"samples": 300, "t": [1, 2, 3, 4], "seed": 20260808})
    _increment_checks(rec, samples=300, sample_ts=(1, 2, 3, 4), seed=20260808)
    rep = rec.done()
    assert rep.checks >= 300
    _finish(7, "increment formulas vs direct recomputation (300 random additions)", rep)


def test_criterion_8_polynomiality_certificates():
    rep = polynomiality_suite(ts=(2, 3), classic_window=8, q_weight=4, q_lam_size=6)
    _finish(8, "polynomiality certificates (10 mixed stats, q-bound, t=1 classics)", rep)


def test_suite_that_ran_no_checks_fails():
    for rep in (bijection_suite(max_size=-1), averages_suite(ts=())):
        assert (rep.checks, rep.failures) == (0, 0)
        assert not rep.ok
