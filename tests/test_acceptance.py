"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (visible with `pytest -s`, and in
the captured output on failure).  The grids and bounds here are the
authoritative ones; the CLI `verify` command runs the same suites with the
same defaults.
"""

import tcores
from tcores.suites import (
    SuiteReport,
    averages_suite,
    bijection_suite,
    fundamental_suite,
    operators_suite,
    per_partition_suite,
    polynomiality_suite,
)


def _finish(num: int, name: str, rep: SuiteReport) -> None:
    status = "PASS" if rep.ok else "FAIL"
    print(
        f"[criterion {num}] {name}: {status} "
        f"({rep.checks} checks, {rep.failures} failures)"
    )
    assert rep.ok, rep.first_failure


def test_criterion_1_bijection():
    rep = bijection_suite(max_size=20, ts=(1, 2, 3, 4, 5))
    _finish(1, "bijection (|lam| <= 20, t in 1..5)", rep)


def test_criterion_2_running_examples():
    # the fundamental suite's pinned examples, with its sweeps cut to size 0
    rep = fundamental_suite(max_size=0, square_max=0)
    _finish(2, "running examples", rep)


def test_criterion_3_hook_formula():
    rep = fundamental_suite(max_size=12, square_max=8)
    _finish(3, "hook formula vs SYT oracle (|lam| <= 12) and sum f^2 = n! (n <= 8)", rep)


def test_criterion_4_operator_identities():
    rep = operators_suite(dG_size=14, dG_ts=(1, 2, 3, 4), n_max=4, ts=(1, 2, 3), eq11_n=5)
    _finish(4, "operator identities (D(G)=0, sum FG=1, t^n identity, transforms)", rep)


def test_criterion_5_per_partition_identities():
    rep = per_partition_suite(max_size=18, ts=(2, 3, 4), layer_n=3, samples=0)
    _finish(5, "per-partition square identities (|lam| <= 18, cores (1),(2),(5,3,1,1))", rep)


def test_criterion_6_closed_form_averages():
    rep = averages_suite(ts=(2, 3), n_max=4)
    _finish(6, "closed-form averages (t in {2,3}, n <= 4, core grid)", rep)


def test_criterion_7_increment_formulas():
    # the per-partition suite's randomized checks, with its square sweeps cut to size 0
    rep = per_partition_suite(
        max_size=0, layer_n=0, samples=300, sample_ts=(1, 2, 3, 4), seed=20260808
    )
    assert rep.checks >= 300
    _finish(7, "increment formulas vs direct recomputation (300 random additions)", rep)


def test_criterion_8_polynomiality_certificates():
    rep = polynomiality_suite(ts=(2, 3), classic_window=8, q_weight=4, q_lam_size=6)
    _finish(8, "polynomiality certificates (10 mixed stats, q-bound, t=1 classics)", rep)


def test_suite_that_ran_no_checks_fails():
    for rep in (bijection_suite(max_size=-1), averages_suite(ts=())):
        assert (rep.checks, rep.failures) == (0, 0)
        assert not rep.ok


def test_public_surface():
    assert sorted(tcores.__all__) == sorted([
        "Partition", "enumerate_partitions", "hook_lengths", "contents",
        "decompose", "recompose", "t_core", "t_quotients", "core_offsets", "is_t_core",
        "LittlewoodDecomposition", "corners", "q_k", "StatSpec", "stat_eval",
        "content_delta", "hook_delta_power", "q_increment",
        "f_lambda", "G_lambda", "layer_walk",
        "covers", "apply_Dt", "apply_Dt_power", "layer_sum", "PartitionStatistic", "certify_polynomiality",
        "SUITES", "SuiteReport",
    ])
    assert all(hasattr(tcores, name) for name in tcores.__all__)
