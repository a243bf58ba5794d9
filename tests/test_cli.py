"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``src`` on its path."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=120,
    )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune", "eqn1"])
        assert args.arch == "gtx980"
        assert args.evals == 100
        assert args.searcher == "surf"

    def test_report_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "table9"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "eqn1" in out and "GTX 980" in out

    def test_variants_inline(self, capsys):
        code = main(
            ["variants", "V[i j] = Sum([k], A[i k] * B[k j])", "--default-dim", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 variants" in out

    def test_variants_eqn1_file(self, tmp_path, capsys):
        path = tmp_path / "eqn1.oct"
        path.write_text(
            "dim i j k l m n = 6\n"
            "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])\n"
        )
        assert main(["variants", str(path)]) == 0
        out = capsys.readouterr().out
        assert "15 variants" in out
        assert "6 with minimal flops" in out

    def test_variants_unreadable_file_reports_error(self, tmp_path, capsys):
        # Regression: an OSError opening an *existing* path used to fall
        # back silently to parsing the path string as inline DSL, which
        # produced a baffling parse error instead of the real file problem.
        assert main(["variants", str(tmp_path)]) == 1  # a directory
        err = capsys.readouterr().err
        assert "cannot read DSL file" in err

    def test_variants_missing_file_not_dsl(self, tmp_path, capsys):
        missing = tmp_path / "nope.oct"
        assert main(["variants", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "neither an existing DSL file nor an inline DSL" in err

    def test_codegen_tcr(self, capsys):
        assert main(["codegen", "lg3", "--kind", "tcr"]) == 0
        out = capsys.readouterr().out
        assert "operations:" in out

    def test_codegen_orio(self, capsys):
        assert main(["codegen", "d1_1", "--kind", "orio"]) == 0
        out = capsys.readouterr().out
        assert "performance_params" in out

    def test_codegen_c(self, capsys):
        assert main(["codegen", "lg3", "--kind", "c"]) == 0
        assert "for (" in capsys.readouterr().out

    def test_tune_small(self, capsys):
        code = main(
            ["tune", "d1_1", "--evals", "15", "--pool", "200", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GFlops" in out and "best configuration" in out

    def test_tune_dsl_file(self, tmp_path, capsys):
        path = tmp_path / "mm.oct"
        path.write_text("dim i j k = 16\nCm[i j] = Sum([k], A[i k] * B[k j])\n")
        code = main(["tune", str(path), "--evals", "10", "--pool", "100"])
        assert code == 0

    def test_tune_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run" / "out.trace"
        code = main(
            [
                "tune", "d1_1", "--evals", "10", "--pool", "100",
                "--seed", "3", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert (trace.parent / "manifest.json").exists()

    def test_unknown_workload_errors(self, capsys):
        assert main(["tune", "not-a-workload"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_table1(self, capsys):
        assert main(["report", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_codegen_cuda_small(self, capsys):
        code = main(
            ["codegen", "d2_1", "--kind", "cuda", "--evals", "10", "--pool", "100"]
        )
        assert code == 0
        assert "__global__" in capsys.readouterr().out


class TestRoofline:
    def test_roofline_command(self, capsys):
        code = main(
            ["roofline", "d2_1", "--evals", "10", "--pool", "100", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bound" in out and "roof" in out


class TestFreshProcess:
    """What a new ``python -m repro`` process refuses and never loads."""

    def test_retired_search_workers_flag_exits_2(self):
        run = _python("-m", "repro", "tune", "lg3", "--search-workers", "2")
        assert run.returncode == 2
        assert "--search-workers" in run.stderr

    def test_import_loads_no_process_pool_or_shared_memory(self):
        # The search runs in one process: importing the CLI pulls in no
        # process-pool executor and no shared-memory module.
        run = _python("-c", (
            "import sys, repro.cli; print(sorted(m for m in ("
            "'multiprocessing.shared_memory', 'concurrent.futures.process')"
            " if m in sys.modules))"
        ))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
