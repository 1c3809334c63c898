"""Unit tests for the benchmark drivers and reporting helpers."""

import dataclasses

import pytest

from repro.bench import ablations, claims, fig7, table2
from repro.bench.fig7 import Fig7Row
from repro.bench.fluid import FluidResult
from repro.bench.reporting import (
    format_ms,
    format_percent,
    format_table,
    sparkline,
)
from repro.errors import ServerCrash
from repro.servers.native import NativeRuntime


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["alpha", 1], ["b", 12345]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "-" in lines[1]
        assert "12,345" in lines[3]

    def test_format_table_floats(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.1" in text

    def test_format_percent(self):
        assert format_percent(0.254) == "25%"
        assert format_percent(-0.01) == "-1%"

    def test_format_ms(self):
        assert format_ms(5_040_000_000) == "5,040 ms"
        assert format_ms(None) == "-"

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8], width=9)
        assert len(line) == 9
        assert line[0] == " " and line[-1] == "█"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_downsamples(self):
        assert len(sparkline([1.0] * 1000, width=50)) <= 51


class TestTable2Module:
    def test_paper_reference_data_complete(self):
        ids = {claim.id for claim in claims.LEDGER}
        for app in table2.WORKLOADS:
            for mode in table2.MODES:
                assert f"table2.{app}.{mode.value}" in ids
        assert claims.PAPER["table2.redis.native"] == 73_000

    def test_render_contains_all_modes(self):
        cells = table2.run_table2()
        text = table2.render(cells)
        for mode in ("native", "kitsune", "varan-1", "mvedsua-1",
                     "varan-2", "mvedsua-2"):
            assert mode in text

    def test_cell_count(self):
        assert len(table2.run_table2()) == 4 * 6


class TestFig7Module:
    def fake_row(self, label, latency_ms):
        result = FluidResult(bins=[1.0], total_ops=1.0,
                             duration_ns=10**9,
                             max_latency_ns=int(latency_ms * 1e6),
                             longest_stall_ns=0)
        return Fig7Row(label, result)

    def test_check_shape_accepts_paper_ordering(self):
        rows = [
            self.fake_row("native", 100),
            self.fake_row("kitsune", 5040),
            self.fake_row("mvedsua-2^10", 7130),
            self.fake_row("mvedsua-2^20", 5330),
            self.fake_row("mvedsua-2^24", 117),
            self.fake_row("immediate-promotion", 3000),
        ]
        assert fig7.check_shape(rows) == []

    def test_check_shape_flags_inversions(self):
        rows = [
            self.fake_row("native", 100),
            self.fake_row("kitsune", 5040),
            self.fake_row("mvedsua-2^10", 100),   # wrong: should be worst
            self.fake_row("mvedsua-2^20", 5330),
            self.fake_row("mvedsua-2^24", 117),
            self.fake_row("immediate-promotion", 3000),
        ]
        failures = fig7.check_shape(rows)
        assert any("2^10" in failure for failure in failures)

    def test_render_includes_paper_column(self):
        rows = fig7.run_fig7()
        text = fig7.render(rows)
        assert "5,040 ms" in text  # the paper's Kitsune number
        assert "shape check: ok" in text


class TestUpgradeStrategies:
    #: ``run_upgrade_strategies()`` before its four deployments shared
    #: one store (PR 23), at the shipped size and at a small one.
    CHECKPOINT = "checkpoint format 'v1' is not readable by kvstore-2.0 (forma"
    PARENT_ROWS = {
        200_000: [
            ("stop-restart", 500_000_000, False, True,
             "in-memory state dropped"),
            ("checkpoint-restart", 535_200_176, True, False, CHECKPOINT),
            ("kitsune", 1_000_105_000, True, True,
             "200,001 entries transformed"),
            ("mvedsua", 15_100_000, True, True,
             "update ran 1000 ms on the follower")],
        1_000: [
            ("stop-restart", 500_000_000, False, True,
             "in-memory state dropped"),
            ("checkpoint-restart", 500_176_176, True, False, CHECKPOINT),
            ("kitsune", 5_105_000, True, True, "1,001 entries transformed"),
            ("mvedsua", 15_100_000, True, True,
             "update ran 5 ms on the follower")],
    }

    def test_two_deployments_of_one_store_are_independent(self):
        store = {f"key{i}": "value" for i in range(50)}
        first, client = ablations._deployment(NativeRuntime, store,
                                              with_kitsune=True)
        second, _ = ablations._deployment(NativeRuntime, store,
                                          with_kitsune=True)
        assert client.command(first.runtime, b"PUT fresh 1") == b"+OK\r\n"
        assert "fresh" in first.server.heap["table"]
        assert "fresh" not in second.server.heap["table"]
        assert len(second.server.heap["table"]) == len(store) + 1  # balance
        assert store == {f"key{i}": "value" for i in range(50)}

    @pytest.mark.parametrize("size", sorted(PARENT_ROWS))
    def test_outcomes_equal_the_unshared_build_and_the_store_survives(
            self, size, monkeypatch):
        stores = []
        deployment = ablations._deployment

        def watched(runtime, store, **kwargs):
            stores.append(store)
            return deployment(runtime, store, **kwargs)

        monkeypatch.setattr(ablations, "STORE_SIZE", size)
        monkeypatch.setattr(ablations, "_deployment", watched)
        outcomes = ablations.run_upgrade_strategies()
        assert [dataclasses.astuple(outcome) for outcome in outcomes] \
            == self.PARENT_ROWS[size]
        assert len(stores) == 4 and all(s is stores[0] for s in stores)
        assert len(stores[0]) == size and "balance" not in stores[0]
        assert set(stores[0].values()) == {"value"}

    def test_check_state_reports_a_lost_server_and_nothing_else(self):
        class Client:
            def __init__(self, error):
                self.error = error

            def command(self, runtime, request, now):
                raise self.error

        assert ablations._check_state(Client(ServerCrash("gone")),
                                      None, 0) is False
        # A harness mistake must not render as "state preserved: NO".
        with pytest.raises(TypeError):
            ablations._check_state(Client(TypeError("harness")), None, 0)
