"""Tests for the ``qutes`` command-line runner."""

from pathlib import Path

import pytest

from repro.cli import build_arg_parser, main

CIRCUITS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "circuits"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.qut"
    path.write_text(
        """
        quint a = 5q;
        quint b = a + 3;
        print b;
        """
    )
    return str(path)


class TestArgumentParser:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["prog.qut"])
        assert args.program == "prog.qut"
        assert args.seed is None
        assert args.shots == 1024
        assert not args.show_circuit

    def test_all_flags(self):
        args = build_arg_parser().parse_args(
            ["prog.qut", "--seed", "3", "--shots", "64", "--show-circuit", "--qasm", "--show-variables"]
        )
        assert args.seed == 3
        assert args.shots == 64
        assert args.show_circuit and args.qasm and args.show_variables


class TestMain:
    def test_runs_program(self, program_file, capsys):
        assert main([program_file, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "8" in out

    def test_show_circuit(self, program_file, capsys):
        assert main([program_file, "--seed", "1", "--show-circuit"]) == 0
        out = capsys.readouterr().out
        assert "--- circuit ---" in out
        assert "cp" in out or "h" in out

    def test_show_variables(self, program_file, capsys):
        assert main([program_file, "--seed", "1", "--show-variables"]) == 0
        out = capsys.readouterr().out
        assert "--- variables ---" in out
        assert "a =" in out

    def test_qasm_output(self, tmp_path, capsys):
        path = tmp_path / "simple.qut"
        path.write_text("qubit q = 1q; print q;")
        assert main([str(path), "--seed", "1", "--qasm"]) == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.qut"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.qut"
        path.write_text("int = ;")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_runtime_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "runtime.qut"
        path.write_text("print 1 / 0;")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_makes_output_deterministic(self, tmp_path, capsys):
        path = tmp_path / "coin.qut"
        path.write_text("qubit q = |+>; print q;")
        main([str(path), "--seed", "9"])
        first = capsys.readouterr().out
        main([str(path), "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestBackendSelection:
    def test_list_backends(self, capsys):
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        assert "statevector" in out and "density_matrix" in out
        assert "stabilizer" in out

    @pytest.mark.parametrize("backend", ["statevector", "density_matrix"])
    def test_runs_program_on_backend(self, program_file, capsys, backend):
        assert main([program_file, "--seed", "1", "--backend", backend]) == 0
        assert "8" in capsys.readouterr().out

    def test_unknown_backend_fails_cleanly(self, program_file, capsys):
        assert main([program_file, "--backend", "warp_drive"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_program_required_without_list_backends(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "program argument is required" in capsys.readouterr().err


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
        "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n"
    )
    return str(path)


class TestFromQasm:
    def test_runs_qasm_circuit(self, qasm_file, capsys):
        assert main(["--from-qasm", qasm_file, "--seed", "1", "--shots", "64"]) == 0
        out = capsys.readouterr().out
        counts = dict(line.split() for line in out.strip().splitlines())
        assert set(counts) == {"00", "11"}
        assert sum(int(v) for v in counts.values()) == 64

    def test_composes_with_every_backend(self, qasm_file, capsys):
        for backend in ["statevector", "density_matrix", "stabilizer"]:
            assert main(
                ["--from-qasm", qasm_file, "--backend", backend, "--seed", "2", "--shots", "32"]
            ) == 0
            assert capsys.readouterr().out

    def test_composes_with_noise(self, qasm_file, capsys):
        argv = ["--from-qasm", qasm_file, "--noise", "0.05", "--noise-model", "bit_flip",
                "--seed", "3", "--shots", "32", "--backend", "stabilizer"]
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_measurement_free_circuit_gets_measure_all(self, tmp_path, capsys):
        path = tmp_path / "plus.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n')
        assert main(["--from-qasm", str(path), "--seed", "1", "--shots", "16"]) == 0
        assert capsys.readouterr().out.strip() == "1 16"

    def test_100_plus_qubit_clifford_file_on_stabilizer(self, capsys):
        path = CIRCUITS_DIR / "ghz_n127.qasm"
        argv = ["--from-qasm", str(path), "--backend", "stabilizer", "--seed", "5", "--shots", "128"]
        assert main(argv) == 0
        counts = dict(
            line.split() for line in capsys.readouterr().out.strip().splitlines()
        )
        assert set(counts) == {"0" * 127, "1" * 127}
        assert sum(int(v) for v in counts.values()) == 128

    def test_non_clifford_on_stabilizer_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "t.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nt q[0];\n')
        assert main(["--from-qasm", str(path), "--backend", "stabilizer"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_qasm_flag_reexports(self, qasm_file, capsys):
        assert main(["--from-qasm", qasm_file, "--qasm", "--seed", "1", "--shots", "4"]) == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out
        assert "cx q[0], q[1];" in out

    def test_show_circuit(self, qasm_file, capsys):
        assert main(["--from-qasm", qasm_file, "--show-circuit", "--seed", "1", "--shots", "4"]) == 0
        assert "--- circuit ---" in capsys.readouterr().out

    def test_parse_error_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[7];\n')
        assert main(["--from-qasm", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err and "column" in err

    def test_missing_file(self, capsys):
        assert main(["--from-qasm", "/nonexistent/x.qasm"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["--from-qasm", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_binary_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "blob.qasm"
        path.write_bytes(b"\xff\xfe\x00\x01binary")
        assert main(["--from-qasm", str(path)]) == 1
        assert "not a UTF-8 text file" in capsys.readouterr().err

    def test_header_only_program_is_a_clean_noop(self, tmp_path, capsys):
        path = tmp_path / "empty.qasm"
        path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n')
        assert main(["--from-qasm", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "declares no qubits" in captured.err

    def test_conflicts_with_program_argument(self, qasm_file, program_file, capsys):
        with pytest.raises(SystemExit):
            main([program_file, "--from-qasm", qasm_file])
        assert "not both" in capsys.readouterr().err

    def test_conflicts_with_ast_flag(self, qasm_file, capsys):
        with pytest.raises(SystemExit):
            main(["--from-qasm", qasm_file, "--ast"])
        assert "--ast" in capsys.readouterr().err

    def test_conflicts_with_show_variables_flag(self, qasm_file, capsys):
        with pytest.raises(SystemExit):
            main(["--from-qasm", qasm_file, "--show-variables"])
        assert "--show-variables" in capsys.readouterr().err


class TestNoiseOptions:
    def test_noise_flags_parsed(self):
        args = build_arg_parser().parse_args(
            ["prog.qut", "--noise", "0.05", "--noise-model", "bit_flip"]
        )
        assert args.noise == 0.05
        assert args.noise_model == "bit_flip"

    def test_noise_defaults_to_depolarizing(self):
        args = build_arg_parser().parse_args(["prog.qut", "--noise", "0.1"])
        assert args.noise_model == "depolarizing"

    @pytest.mark.parametrize("backend", [None, "statevector", "density_matrix"])
    def test_program_runs_with_noise(self, program_file, capsys, backend):
        argv = [program_file, "--seed", "1", "--noise", "0.01"]
        if backend is not None:
            argv += ["--backend", backend]
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_non_clifford_program_fails_on_stabilizer(self, program_file, capsys):
        # the adder logs controlled phases: the tableau refuses the first one
        argv = [program_file, "--seed", "1", "--noise", "0.01", "--backend", "stabilizer"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "instruction 'cp' is not a Clifford operation" in err

    def test_clifford_program_runs_with_noise_on_stabilizer(self, tmp_path, capsys):
        path = tmp_path / "bell.qut"
        path.write_text("qubit a = |+>; qubit b = |0>; cx(a, b); print a == b;")
        argv = [str(path), "--seed", "1", "--noise", "0.01", "--backend", "stabilizer"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() in ("true", "false")

    def test_invalid_probability_fails_cleanly(self, program_file, capsys):
        assert main([program_file, "--noise", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_build_noisy_backend_maps_channels(self):
        from repro.qsim.backends import build_noisy_backend

        backend = build_noisy_backend("stabilizer", 0.1, "phase_flip", seed=1)
        assert type(backend._engine.noise_model).__name__ == "PhaseFlipNoise"
        backend = build_noisy_backend("dm", 0.1, "depolarizing", seed=1)
        assert type(backend._engine.noise_model).__name__ == "DepolarizingNoise"
        backend = build_noisy_backend(None, 0.1, "bit_flip")
        assert backend.name == "statevector"


class TestServiceVerbs:
    """The durable-queue verbs: submit / status / worker / result / cancel."""

    def test_submit_worker_result_round_trip(self, qasm_file, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        assert main(["submit", qasm_file, "--db", db, "--seed", "7", "--shots", "64"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("job-")

        assert main(["status", job_id, "--db", db]) == 0
        assert "QUEUED attempts=0" in capsys.readouterr().out

        assert main(["worker", "--db", db, "--burst"]) == 0
        assert "processed 1 job" in capsys.readouterr().out

        assert main(["result", job_id, "--db", db]) == 0
        counts = dict(
            line.split() for line in capsys.readouterr().out.strip().splitlines()
        )
        assert set(counts) == {"00", "11"}
        assert sum(int(v) for v in counts.values()) == 64

    def test_resubmission_is_served_from_the_compiled_cache(self, qasm_file, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        for _ in range(2):
            assert main(["submit", qasm_file, "--db", db, "--seed", "7"]) == 0
            capsys.readouterr()
            assert main(["worker", "--db", db, "--burst"]) == 0
            capsys.readouterr()
        assert main(["queue-stats", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "DONE 2" in out
        assert "cache-entries 1" in out
        assert "cache-disk-hits 1" in out  # the second run never recompiled

    def test_result_before_completion_errors(self, qasm_file, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        main(["submit", qasm_file, "--db", db])
        job_id = capsys.readouterr().out.strip()
        assert main(["result", job_id, "--db", db]) == 1
        assert "not finished (state QUEUED)" in capsys.readouterr().err

    def test_cancel_is_terminal_and_idempotently_refused(self, qasm_file, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        main(["submit", qasm_file, "--db", db])
        job_id = capsys.readouterr().out.strip()
        assert main(["cancel", job_id, "--db", db]) == 0
        assert "CANCELLED" in capsys.readouterr().out
        assert main(["cancel", job_id, "--db", db]) == 1
        assert "already terminal (CANCELLED)" in capsys.readouterr().err
        # a worker finds nothing to run
        assert main(["worker", "--db", db, "--burst"]) == 0
        assert "processed 0 job" in capsys.readouterr().out

    def test_failed_job_surfaces_error_line(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        path = tmp_path / "t.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
            "t q[0];\nmeasure q -> c;\n"
        )
        # --no-lint lets the doomed job through to a worker (submit-time
        # analysis would reject it with QA401 otherwise)
        argv = ["submit", str(path), "--db", db, "--backend", "stabilizer",
                "--max-attempts", "1", "--no-lint"]
        assert main(argv) == 0
        job_id = capsys.readouterr().out.strip()
        main(["worker", "--db", db, "--burst", "--retry-delay", "0"])
        capsys.readouterr()
        assert main(["result", job_id, "--db", db]) == 1
        err = capsys.readouterr().err
        assert "job ended FAILED" in err
        assert "BackendError" in err

    def test_submit_missing_file_is_exit_2(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        assert main(["submit", str(tmp_path / "ghost.qasm"), "--db", db]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_submit_invalid_options_are_exit_1(self, qasm_file, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        assert main(["submit", qasm_file, "--db", db, "--max-attempts", "0"]) == 1
        assert "max_attempts" in capsys.readouterr().err

    def test_status_unknown_job_errors(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        assert main(["status", "job-missing", "--db", db]) == 1
        assert "no such job" in capsys.readouterr().err


BAD_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
qreg spare[2];
creg c[3];
creg never[2];
h q[0];
measure q[0] -> c[0];
x q[0];
measure q[1] -> c[1];
measure q[1] -> c[1];
"""


class TestLintVerb:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.qasm"
        path.write_text(BAD_QASM)
        return str(path)

    def test_reports_five_distinct_codes_with_spans(self, bad_file, capsys):
        assert main(["lint", bad_file]) == 0  # warnings/info only: rc 0
        out = capsys.readouterr().out
        codes = {line.split("[")[1].split("]")[0] for line in out.splitlines()}
        assert {"QA101", "QA102", "QA103", "QA201", "QA202"} <= codes
        assert f"{bad_file}:9:1: warning[QA101]" in out  # the x gate
        assert f"{bad_file}:11:1: warning[QA102]" in out  # the re-measure

    def test_clean_file_is_quiet_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "bell.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
            "h q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        assert main(["lint", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_error_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "t.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
            "t q[0];\nmeasure q[0] -> c[0];\n"
        )
        assert main(["lint", str(path), "--backend", "stabilizer"]) == 1
        assert "error[QA401]" in capsys.readouterr().out

    def test_min_severity_filters_output(self, bad_file, capsys):
        assert main(["lint", bad_file, "--min-severity", "warn"]) == 0
        out = capsys.readouterr().out
        assert "QA101" in out and "QA201" not in out

    def test_parse_error_becomes_qa001_with_span(self, tmp_path, capsys):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1;\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:2:9: error[QA001]" in out

    def test_json_format(self, bad_file, capsys):
        import json

        assert main(["lint", bad_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["resources"]["num_qubits"] == 5
        assert any(d["code"] == "QA101" for d in data[0]["diagnostics"])

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "ghost.qasm")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_findings_without_a_span_name_their_file(self, tmp_path, capsys):
        paths = []
        for name in ("bell.qasm", "other.qasm"):
            path = tmp_path / name
            path.write_text(
                'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
                "h q[0];\ncx q[0], q[1];\nmeasure q -> c;\n"
            )
            paths.append(str(path))
        assert main(["lint", *paths, "--shots", "0"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: error[QA406]: shot count must be positive, got 0" for path in paths
        ]


@pytest.mark.parametrize("verb", ["--from-qasm", "submit", "lint"])
def test_every_verb_reads_a_binary_file_like_a_parse_error(verb, tmp_path, capsys):
    path = tmp_path / "blob.qasm"
    path.write_bytes(b"\xff\xfe\x00\x01binary")
    argv = [verb, str(path)]
    if verb == "submit":
        argv += ["--db", str(tmp_path / "jobs.db")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "not a UTF-8 text file" in captured.out + captured.err
    assert "Traceback" not in captured.err
    if verb == "lint":  # positioned at the first undecodable byte
        assert f"{path}:1:1: error[QA001]" in captured.out


class TestLintFlag:
    def test_lint_aborts_run_on_error(self, tmp_path, capsys):
        path = tmp_path / "t.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
            "t q[0];\nmeasure q[0] -> c[0];\n"
        )
        argv = ["--from-qasm", str(path), "--lint", "--backend", "stabilizer"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "QA401" in err and "failed static analysis" in err

    def test_lint_warn_threshold(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text(BAD_QASM)
        assert main(["--from-qasm", str(path), "--lint", "warn"]) == 1
        assert "QA101" in capsys.readouterr().err
        # default 'error' threshold lets warnings through and runs
        assert main(["--from-qasm", str(path), "--lint", "--seed", "1", "--shots", "4"]) == 0
        captured = capsys.readouterr()
        assert "QA101" in captured.err  # still reported
        assert captured.out  # counts printed

    def test_clean_circuit_runs_silently(self, tmp_path, capsys):
        path = tmp_path / "bell.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
            "h q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        assert main(["--from-qasm", str(path), "--lint", "--seed", "1", "--shots", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out

    def test_lint_flag_rejected_for_qut_programs(self, program_file, capsys):
        with pytest.raises(SystemExit):
            main([program_file, "--lint"])
        assert "--lint applies to --from-qasm" in capsys.readouterr().err


class TestSubmitValidation:
    def test_rejected_submit_prints_findings_and_job_id(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        path = tmp_path / "t.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
            "t q[0];\nmeasure q[0] -> c[0];\n"
        )
        assert main(["submit", str(path), "--db", db, "--backend", "chp"]) == 1
        captured = capsys.readouterr()
        job_id = captured.out.strip()
        assert job_id.startswith("job-")
        assert "error[QA401]" in captured.err
        assert "rejected by static analysis" in captured.err
        # the job is already FAILED with the artifact attached
        assert main(["status", job_id, "--db", db]) == 0
        status_out = capsys.readouterr().out
        assert "FAILED" in status_out
        assert "diagnostics: 1 error(s)" in status_out

    def test_clean_submit_reports_diagnostics_summary(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        path = tmp_path / "bell.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
            "h q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        assert main(["submit", str(path), "--db", db]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["status", job_id, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "QUEUED" in out
        assert "diagnostics: 0 error(s), 0 warning(s)" in out

    def test_submit_lints_the_circuit_the_job_measures(self, tmp_path, capsys):
        # a circuit without measurements runs measure-all'd, so noise on it
        # is observed: only the lint verb, which reads the file as written,
        # warns about unmeasured noise
        db = str(tmp_path / "svc.db")
        path = tmp_path / "nomeas.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n'
        )
        assert main(["lint", str(path), "--noise", "0.05"]) == 0
        assert "warning[QA301]" in capsys.readouterr().out
        assert main(["submit", str(path), "--db", db, "--noise", "0.05"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().startswith("job-")
        assert captured.err == ""
        assert main(["--from-qasm", str(path), "--noise", "0.05", "--lint", "warn"]) == 0
        assert capsys.readouterr().err == ""

    def test_warning_findings_do_not_block_submit(self, tmp_path, capsys):
        db = str(tmp_path / "svc.db")
        path = tmp_path / "bad.qasm"
        path.write_text(BAD_QASM)
        assert main(["submit", str(path), "--db", db]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().startswith("job-")
        assert "warning[QA101]" in captured.err  # surfaced, not fatal
