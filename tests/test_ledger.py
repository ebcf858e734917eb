"""benchmarks/ledger.py held to a fresh run, and the directions its
figures keep across the two layouts and conntrack's bank counts."""

import json

import pytest

from benchmarks import ledger


@pytest.fixture(scope="module")
def rows():
    return ledger.rows()


def test_the_ledger_and_its_tables_are_a_fresh_run(rows):
    committed = json.loads(ledger.LEDGER.read_text())
    stale = sorted(name for name in rows.keys() | committed.keys()
                   if rows.get(name) != committed.get(name))
    assert not stale, f"stale rows {stale}: run python benchmarks/ledger.py"
    text = ledger.EXPERIMENTS.read_text()
    assert ledger.experiments(committed, text) == text


def test_the_figures_keep_their_directions(rows):
    # no app gets deeper, slower, larger or flushes more, each gets
    # shallower, and no window gets wider but where it replaces flushes
    for name in ledger.APPS:
        paper, shared = (rows[f"{name}/{layout}"] for layout in ledger.LAYOUTS)
        assert shared["stages"] < paper["stages"], name
        for figure in (ledger.cycles, ledger.latency_ns,
                       lambda row: row["luts"],
                       lambda row: row["flush_events"]):
            assert figure(shared) <= figure(paper), name
        paper_w, shared_w = (max((w["W"] for w in row["windows"]), default=0)
                             for row in (paper, shared))
        assert shared_w <= paper_w or paper["flush_events"], name
    assert rows["ct_firewall/path-parallel"]["windows"][0]["W"] <= 4
    for layout in ledger.LAYOUTS:  # no SYN touches a map inside the window
        assert ledger.cycles(rows[f"syn_cookie/{layout}"]) <= 1.05, layout
    # more banks serialise less; the schedule does not move with them,
    # and the bank compare is not costed
    sweep = list(ledger.bank_sweep(rows).values())
    cycles = [ledger.cycles(row) for row in sweep]
    assert cycles == sorted(cycles, reverse=True)
    assert len({(row["stages"], ledger.window(row), row["luts"])
                for row in sweep}) == 1
