"""CLI tests for ``python -m repro.characterize`` and the overlay flags."""

from __future__ import annotations

import json

import pytest

from repro.characterize.cli import main

#: A fast class-covering subset for CLI-level runs.
SUBSET = "add,addps,mulps,mov,imul"


class TestRun:
    def test_run_writes_table_and_overlay(self, tmp_path, capsys):
        table_path = tmp_path / "itable.json"
        overlay_path = tmp_path / "overlay.json"
        rc = main(
            [
                "run",
                "--opcodes", SUBSET,
                "--table", str(table_path),
                "--overlay", str(overlay_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "characterized 5 of" in out
        table = json.loads(table_path.read_text())
        assert table["schema"] == "repro-itable-v1"
        assert table["entries"]["add"]["probed"] is True
        overlay = json.loads(overlay_path.read_text())
        assert overlay["name"].endswith("+itable")
        assert "branch_cost" in overlay

    def test_run_uses_the_cache(self, tmp_path, capsys):
        args = [
            "run",
            "--opcodes", SUBSET,
            "--table", str(tmp_path / "t.json"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "0 jobs executed" in capsys.readouterr().out


class TestVerify:
    def test_verify_in_memory_exits_zero(self, capsys):
        assert main(["verify", "--opcodes", SUBSET]) == 0
        out = capsys.readouterr().out
        assert "round-trip: OK" in out

    def test_verify_saved_table(self, tmp_path, capsys):
        table_path = tmp_path / "t.json"
        assert main(["run", "--opcodes", SUBSET, "--table", str(table_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--table", str(table_path)]) == 0
        assert "round-trip: OK" in capsys.readouterr().out

    def test_verify_fails_on_impossible_tolerance(self, tmp_path, capsys):
        table_path = tmp_path / "t.json"
        assert main(["run", "--opcodes", SUBSET, "--table", str(table_path)]) == 0
        capsys.readouterr()
        rc = main(["verify", "--table", str(table_path), "--tolerance", "1e-12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_table_exits_two(self, tmp_path, capsys):
        rc = main(["verify", "--table", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "no instruction table" in capsys.readouterr().err


class TestDiff:
    def test_no_drift_on_the_simulated_machine(self, tmp_path, capsys):
        table_path = tmp_path / "t.json"
        assert main(["run", "--opcodes", SUBSET, "--table", str(table_path)]) == 0
        capsys.readouterr()
        assert main(["diff", "--table", str(table_path)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_is_reported(self, tmp_path, capsys):
        """Edit the saved table's latency and diff must flag it."""
        table_path = tmp_path / "t.json"
        assert main(["run", "--opcodes", SUBSET, "--table", str(table_path)]) == 0
        data = json.loads(table_path.read_text())
        data["entries"]["imul"]["latency_cycles"] = 9
        table_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["diff", "--table", str(table_path)]) == 1
        out = capsys.readouterr().out
        assert "imul: latency 9" in out

    def test_bad_machine_file_exits_two(self, tmp_path, capsys):
        rc = main(["diff", "--machine-file", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no machine file" in capsys.readouterr().err


class TestMachineOverlayFlags:
    """The overlay derived by characterize feeds both existing CLIs."""

    @pytest.fixture()
    def overlay_path(self, tmp_path):
        path = tmp_path / "overlay.json"
        assert (
            main(
                [
                    "run",
                    "--opcodes", SUBSET,
                    "--table", str(tmp_path / "t.json"),
                    "--overlay", str(path),
                ]
            )
            == 0
        )
        return path

    def test_microlauncher_applies_the_overlay(self, tmp_path, overlay_path, capsys):
        from repro.cli.launcher_cli import main as launcher_main

        kernel = tmp_path / "k.s"
        kernel.write_text(
            ".L0:\n\taddps %xmm1, %xmm0\n\tsub $1, %rdi\n\tjge .L0\n"
        )
        capsys.readouterr()
        assert launcher_main([str(kernel), "--machine-overlay", str(overlay_path)]) == 0
        assert "+itable" in capsys.readouterr().out

    def test_microlauncher_rejects_bad_overlay(self, tmp_path, capsys):
        from repro.cli.launcher_cli import main as launcher_main

        kernel = tmp_path / "k.s"
        kernel.write_text(
            ".L0:\n\taddps %xmm1, %xmm0\n\tsub $1, %rdi\n\tjge .L0\n"
        )
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        capsys.readouterr()
        assert launcher_main([str(kernel), "--machine-overlay", str(bad)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_microcreator_applies_the_overlay(self, tmp_path, overlay_path, capsys):
        from repro.cli.creator_cli import main as creator_main
        from repro.kernels import spec_path

        rc = creator_main(
            [
                str(spec_path("load_movaps")),
                "--measure",
                "--limit", "2",
                "--array-bytes", "16384",
                "--trip", "256",
                "--machine-overlay", str(overlay_path),
                "--results", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "r.csv").exists()


class TestEngineFlags:
    def test_run_reruns_from_cache(self, tmp_path, capsys):
        tables = []
        for i in range(2):
            table = tmp_path / f"t{i}.json"
            args = [
                "run", "--opcodes", SUBSET,
                "--jobs", "2", "--chunk-size", "2", "--max-retries", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--table", str(table),
            ]
            assert main(args) == 0
            tables.append(table.read_bytes())
        assert "(0 jobs executed, " in capsys.readouterr().out
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "flag",
        (
            ("--chunk-policy", "static"),
            ("--chunk-target-ms", "100"),
            ("--store-format", "jsonl"),
            ("--gen-cache", "g"),
        ),
    )
    def test_unbound_engine_flags_are_usage_errors(self, flag, capsys):
        # The three deleted knobs, and --gen-cache (launcher/creator only).
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--opcodes", "add", *flag])
        assert exit_info.value.code == 2
