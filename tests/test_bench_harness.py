"""Tests for the benchmark harness helpers and reporting."""

import runpy

import pytest

import repro.bench
from repro.api import OpenFlags, op
from repro.bench import (
    format_table,
    make_base,
    make_device,
    make_rae,
    make_shadow,
    print_banner,
    run_ops,
    time_ops,
)


class TestSurface:
    def test_all_is_the_eight_helpers_benchmarks_and_tools_import(self):
        assert sorted(repro.bench.__all__) == [
            "format_table", "make_base", "make_device", "make_rae",
            "make_shadow", "print_banner", "run_ops", "time_ops",
        ]

    def test_package_is_not_runnable(self):
        """``python -m repro.bench`` was the rae-bench entry point; the
        repository's benchmark is perfbench/ and no shim is left."""
        with pytest.raises(ImportError, match="cannot be directly executed"):
            runpy.run_module("repro.bench", run_name="__main__")


class TestHarness:
    def test_make_device_is_formatted_and_fresh(self):
        a = make_device(4096)
        b = make_device(4096)
        from repro.ondisk.image import read_superblock

        assert read_superblock(a).root_ino == 2
        a.write_block(100, b"\x77" * 4096)
        assert b.read_block(100) != a.read_block(100)

    def test_make_device_journal_blocks_override(self):
        from repro.ondisk.image import read_superblock

        device = make_device(4096, journal_blocks=64)
        assert read_superblock(device).journal_blocks == 64
        # The template cache keys on (block_count, journal): the default
        # geometry is not clobbered by the override.
        assert read_superblock(make_device(4096)).journal_blocks != 64

    def test_make_rae_obs_passthrough(self):
        from repro.obs import Registry

        registry = Registry()
        fs = make_rae(4096, obs=registry)
        assert fs.obs is registry
        fs.mkdir("/x")
        assert registry.snapshot()["counters"]["op.count.mkdir"] >= 1

    def test_make_fs_variants(self, seq):
        base = make_base(4096)
        base.mkdir("/x", opseq=seq())
        shadow = make_shadow(4096)
        shadow.mkdir("/x", opseq=seq())
        rae = make_rae(4096)
        rae.mkdir("/x")
        assert base.readdir("/") == shadow.readdir("/") == rae.readdir("/") == ["x"]

    def test_run_ops_counts(self):
        fs = make_base(4096)
        operations = [op("mkdir", path="/a"), op("mkdir", path="/a"), op("stat", path="/a")]
        assert run_ops(fs, operations) == 3  # errno outcomes count as run

    def test_time_ops_returns_throughput(self):
        fs = make_base(4096)
        operations = [op("mkdir", path=f"/d{i}") for i in range(20)]
        elapsed, throughput = time_ops(fs, operations)
        assert elapsed > 0 and throughput > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["first", 1.2345], ["second-longer", 100000.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text and "100000" in text
        assert len(lines) == 4

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formats(self):
        text = format_table(["v"], [[0.0], [0.1234567], [5.678], [12345.6]])
        assert "0.1235" in text
        assert "5.68" in text
        assert "12346" in text

    def test_print_banner(self, capsys):
        print_banner("hello bench")
        out = capsys.readouterr().out
        assert "hello bench" in out
        assert "====" in out
