"""Tests for tools/check_invariants.py: the AST repo-invariant lint.

The checker lives outside the package (it is a repo tool, not library
code), so it is loaded via importlib straight from ``tools/``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER_PATH = REPO_ROOT / "tools" / "check_invariants.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_invariants", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def check_source(tmp_path, source, rel="repro/qsim/kernels.py"):
    """Findings for *source* written at *rel* under a scratch src tree."""
    path = tmp_path / "src" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return checker.check_file(path, f"src/{rel}")


class TestSeededRandomness:
    def test_stdlib_random_import_flagged_anywhere(self, tmp_path):
        findings = check_source(
            tmp_path, "import random\n", rel="repro/qsim/noise.py"
        )
        assert [f.code for f in findings] == ["INV101"]

    def test_from_random_import_flagged(self, tmp_path):
        findings = check_source(
            tmp_path, "from random import choice\n", rel="repro/lang/interpreter.py"
        )
        assert [f.code for f in findings] == ["INV101"]

    def test_legacy_global_np_random_flagged(self, tmp_path):
        source = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/simulator.py")
        assert [f.code for f in findings] == ["INV102", "INV102"]

    def test_new_style_generator_api_allowed(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(seed)\n"
            "g: np.random.Generator = rng\n"
        )
        assert check_source(tmp_path, source, rel="repro/qsim/simulator.py") == []

    def test_unseeded_default_rng_flagged(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/simulator.py")
        assert [f.code for f in findings] == ["INV103"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert check_source(tmp_path, source, rel="repro/qsim/simulator.py") == []


class TestAllowMarker:
    def test_marker_silences_the_line(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # invariant: allow -- fallback\n"
        )
        assert check_source(tmp_path, source, rel="repro/qsim/density.py") == []

    def test_marker_only_covers_its_own_line(self, tmp_path):
        source = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # invariant: allow\n"
            "b = np.random.default_rng()\n"
        )
        findings = check_source(tmp_path, source, rel="repro/qsim/density.py")
        assert [f.line for f in findings] == [3]


class TestOneAxisLayout:
    def test_moveaxis_allowed_in_kernels(self, tmp_path):
        source = "import numpy as np\npsi = np.moveaxis(psi, [0], [1])\n"
        assert check_source(tmp_path, source, rel="repro/qsim/kernels.py") == []

    def test_moveaxis_flagged_elsewhere(self, tmp_path):
        source = "import numpy as np\npsi = np.moveaxis(psi, [0], [1])\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/fusion.py")
        assert [(f.code, f.line) for f in findings] == [("INV201", 2)]

    def test_moveaxis_import_flagged_elsewhere(self, tmp_path):
        source = "from numpy import moveaxis\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/statevector.py")
        assert [f.code for f in findings] == ["INV201"]


    @pytest.mark.parametrize(
        "call",
        ["np.transpose(psi, (1, 0))", "np.swapaxes(psi, 0, 1)", "psi.transpose(1, 0)",
         "psi.reshape(2, 2).swapaxes(0, 1)"],
    )
    def test_transpose_and_swapaxes_flagged_elsewhere(self, tmp_path, call):
        source = f"import numpy as np\npsi = {call}\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/shotbatch.py")
        assert [(f.code, f.line) for f in findings] == [("INV201", 2)]
        assert check_source(tmp_path, source, rel="repro/qsim/kernels.py") == []

    def test_transpose_import_flagged_elsewhere(self, tmp_path):
        source = "from numpy import swapaxes, transpose\n"
        findings = check_source(tmp_path, source, rel="repro/qsim/density.py")
        assert [f.code for f in findings] == ["INV201", "INV201"]


class TestTreeAndCli:
    def test_repo_source_tree_is_clean(self):
        findings = checker.check_tree(REPO_ROOT / "src")
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_codes(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.py").write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, str(CHECKER_PATH), "--root", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        (src / "bad.py").write_text("import random\n")
        proc = subprocess.run(
            [sys.executable, str(CHECKER_PATH), "--root", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "bad.py:1:1: INV101" in proc.stdout

    def test_missing_src_dir_is_exit_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(CHECKER_PATH), "--root", str(tmp_path / "ghost")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        findings = check_source(tmp_path, "def broken(:\n", rel="repro/oops.py")
        assert [f.code for f in findings] == ["INV000"]


def test_findings_format_is_gcc_style(tmp_path):
    findings = check_source(
        tmp_path, "import numpy as np\nnp.random.seed(0)\n"
    )
    line = findings[0].format()
    assert line.startswith("src/repro/qsim/kernels.py:2:")
    assert ": INV102: " in line
