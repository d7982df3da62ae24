"""Netlist pass pack: seeded defects, loop enumeration, delegation."""

import sys

from repro.analysis import AnalysisTarget, Severity, analyze
from repro.analysis.passes.netlist import FANOUT_BUDGET
from repro.fabric.netlist import Cell, DFF, LUT4, Netlist

from .fixtures import defective_netlist


def _rules(report):
    return {d.rule for d in report.diagnostics}


def _lint(netlist, rules=None):
    return analyze([AnalysisTarget("netlist", netlist.name, netlist)],
                   rules=rules)


class TestSeededDefects:
    def test_every_seeded_defect_detected(self):
        report = _lint(defective_netlist())
        assert _rules(report) == {
            "netlist.comb-loop", "netlist.undriven-net",
            "netlist.dangling-output", "netlist.duplicate-lut-input",
            "netlist.tmr-unvoted", "netlist.floating-net"}

    def test_all_loops_reported_with_paths(self):
        # The legacy recursive checker stopped at the first loop; the
        # iterative SCC pass must report both, each with a closed path.
        report = _lint(defective_netlist(), rules=["netlist.comb-loop"])
        messages = sorted(d.message for d in report.diagnostics)
        assert messages == [
            "combinational loop through 'a': a -> b -> a",
            "combinational loop through 'c': c -> d -> c",
        ]

    def test_self_loop(self):
        netlist = Netlist("selfloop")
        netlist.add_cell(Cell(name="s", kind=LUT4, inputs=["n0"],
                              output="n0"))
        report = _lint(netlist, rules=["netlist.comb-loop"])
        assert [d.message for d in report.diagnostics] == [
            "combinational loop through 's': s -> s"]

    def test_deep_ring_no_recursion_error(self):
        # Regression: the old DFS recursed per cell and raised the
        # interpreter recursion limit as a side effect.
        netlist = Netlist("ring")
        depth = 3 * sys.getrecursionlimit()
        for i in range(depth):
            netlist.add_cell(Cell(name=f"c{i}", kind=LUT4,
                                  inputs=[f"n{i}"],
                                  output=f"n{(i + 1) % depth}"))
        limit_before = sys.getrecursionlimit()
        errors = netlist.validate()
        assert sys.getrecursionlimit() == limit_before
        assert len(errors) == 1
        assert "combinational loop through 'c0'" in errors[0]

    def test_registers_break_loops(self):
        netlist = Netlist("dffring")
        netlist.add_cell(Cell(name="l", kind=LUT4, inputs=["q"],
                              output="d"))
        netlist.add_cell(Cell(name="r", kind=DFF, inputs=["d"],
                              output="q"))
        netlist.add_input("q")
        report = _lint(netlist, rules=["netlist.comb-loop"])
        assert report.diagnostics == []

    def test_fanout_budget(self):
        netlist = Netlist("fanout")
        netlist.add_input("big")
        netlist.add_cell(Cell(name="src", kind=LUT4, inputs=["big"],
                              output="hot"))
        for i in range(FANOUT_BUDGET + 1):
            netlist.add_cell(Cell(name=f"sink{i}", kind=DFF,
                                  inputs=["hot"], output=f"q{i}"))
        report = _lint(netlist, rules=["netlist.fanout-budget"])
        assert len(report.diagnostics) == 1
        assert "fans out to 65 sinks" in report.diagnostics[0].message
        assert report.diagnostics[0].severity is Severity.WARNING

    def test_tmr_domain_with_voter_is_clean(self):
        netlist = Netlist("tmr")
        netlist.add_input("d")
        for replica in range(3):
            netlist.add_cell(Cell(name=f"core_tmr{replica}", kind=DFF,
                                  inputs=["d"], output=f"q{replica}"))
        netlist.add_cell(Cell(name="core_voter", kind=LUT4,
                              inputs=["q0", "q1", "q2"], output="v"))
        netlist.add_output("v")
        report = _lint(netlist, rules=["netlist.tmr-unvoted"])
        assert report.diagnostics == []


class TestValidateDelegation:
    def test_validate_returns_only_errors(self):
        errors = defective_netlist().validate()
        # warnings (duplicate input, unvoted TMR) and info (floating
        # net) must not leak into the legacy validate() shape.
        assert len(errors) == 4
        assert any("has sinks but no driver" in e for e in errors)
        assert any("combinational loop through 'a'" in e for e in errors)
        assert any("combinational loop through 'c'" in e for e in errors)
        assert any("is not driven by any cell" in e for e in errors)

    def test_clean_netlist_validates_empty(self):
        netlist = Netlist("clean")
        netlist.add_input("a")
        netlist.add_cell(Cell(name="g", kind=LUT4, inputs=["a"],
                              output="y"))
        netlist.add_output("y")
        assert netlist.validate() == []
