"""Exact combinatorics of partition cores, quotients, hook statistics, and
their walk-weighted layer averages, with mechanical verification suites."""

from .corners import StatSpec, content_delta, corners, hook_delta_power, q_increment, q_k, stat_eval
from .littlewood import (
    LittlewoodDecomposition,
    core_offsets,
    decompose,
    is_t_core,
    recompose,
    t_core,
    t_quotients,
)
from .operators import PartitionStatistic, apply_Dt, apply_Dt_power, certify_polynomiality, covers, layer_sum
from .partitions import Partition, contents, enumerate_partitions, hook_lengths
from .suites import SUITES, SuiteReport
from .weights import G_lambda, f_lambda, layer_walk

__version__ = "0.1.0"

__all__ = [
    "G_lambda",
    "LittlewoodDecomposition",
    "Partition",
    "PartitionStatistic",
    "StatSpec",
    "SUITES",
    "SuiteReport",
    "apply_Dt",
    "apply_Dt_power",
    "certify_polynomiality",
    "content_delta",
    "contents",
    "core_offsets",
    "corners",
    "covers",
    "decompose",
    "enumerate_partitions",
    "f_lambda",
    "hook_delta_power",
    "hook_lengths",
    "is_t_core",
    "layer_sum",
    "layer_walk",
    "q_increment",
    "q_k",
    "recompose",
    "stat_eval",
    "t_core",
    "t_quotients",
]
