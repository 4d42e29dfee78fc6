"""Tests of the span wrapper.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import time

import pytest

import spans
from run import SRC
from worker import import_maghom, run_job
from workloads import build_workloads, write_inputs

import_maghom(SRC)

import maghom  # noqa: E402
import maghom.distmod  # noqa: E402
import maghom.linalg  # noqa: E402
from maghom.cli import main as cli_main  # noqa: E402


def test_self_time_is_duration_minus_children():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = rec.wrap("outer", body)
    t0 = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - t0

    assert rec.calls == {"outer": 1, "inner": 2}
    assert rec.edges == {("outer", "inner"): 2}
    assert rec.self_s["inner"] >= 0.04
    assert rec.self_s["outer"] >= 0.01
    # outer's duration is its self time plus both inner spans
    assert rec.self_s["outer"] + rec.self_s["inner"] == pytest.approx(rec.top_s, abs=1e-9)
    assert rec.top_s <= elapsed


def test_calls_through_rebound_names_are_caught_and_undone():
    original = maghom.linalg.snf
    assert maghom.distmod.snf is original  # bound by `from .linalg import snf`
    rec = spans.Recorder()
    undo, missing = spans.install(rec)
    try:
        assert missing == []
        assert maghom.distmod.snf is maghom.linalg.snf is maghom.snf
        assert maghom.distmod.snf is not original
        m = maghom.linalg.SparseMatrix.from_dense([[2, 0], [0, 3]])
        assert maghom.distmod.snf(m) == [1, 6]
        assert maghom.snf(m) == [1, 6]
    finally:
        undo()
    assert maghom.distmod.snf is original and maghom.linalg.snf is original
    assert rec.calls["linalg.snf"] == 2
    assert rec.counts["linalg.snf_nnz"] == 4
    assert rec.counts["linalg.torsion_factors"] == 2


def test_missing_target_is_reported_not_wrapped():
    rec = spans.Recorder()
    gone = spans.Target("linalg.gone", "maghom.linalg", "no_such_function")
    undo, missing = spans.install(rec, targets=(gone,))
    undo()
    assert missing == [gone]


def test_chain_z_homology_spans_contain_snf_and_rank(tmp_path):
    wl = build_workloads()["chain-z"]
    job = next(j for j in wl.jobs if j.instance == "cyc8")
    paths, _ = write_inputs(wl, seed=0, gen_offset=0, directory=tmp_path)
    untraced = run_job(cli_main, job.argv(paths["cyc8"]))
    rec = spans.Recorder()
    undo, _ = spans.install(rec)
    try:
        traced = run_job(cli_main, job.argv(paths["cyc8"]))
    finally:
        undo()
    assert traced[:2] == untraced[:2] and traced[0] == 0
    assert rec.edges[("linalg.check", "linalg.snf")] == rec.calls["linalg.snf"] > 0
    assert rec.edges[("linalg.check", "linalg.rank")] > 0
    assert rec.edges[("chain.assemble", "chain.enumerate")] > 0
    assert rec.calls["linalg.check"] == rec.calls["linalg.snf"]
