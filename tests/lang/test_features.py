"""Tests for the language features added for faithful paper showcases:
sized quantum registers, indexing into quantum registers, the two-register
builtins (cx / cz / swap), and the standard-library programs."""

import pytest

from repro.lang import QutesRuntimeError, QutesSyntaxError, QutesTypeError, run_source
from repro.lang.stdlib import ProgramMetrics, get_program, list_programs, program_metrics
from repro.lang.types import QutesType, TypeKind


def run(source, seed=7):
    return run_source(source, seed=seed)


class TestSizedRegisters:
    def test_sized_quint_width(self):
        assert run("quint[5] a = 3q; print size(a);").printed == "5"

    def test_sized_quint_value_preserved(self):
        assert run("quint[6] a = 3q; print a;").printed == "3"

    def test_sized_default_initialisation(self):
        assert run("quint[4] a; print a; print size(a);").output == ["0", "4"]

    def test_sized_from_classical_value(self):
        assert run("quint[8] a = 200; print a;").printed == "200"

    def test_sized_superposition(self):
        result = run("quint[4] a = [1, 2]; print size(a); print a;")
        assert result.output[0] == "4"
        assert result.output[1] in ("1", "2")

    def test_narrowing_rejected(self):
        with pytest.raises(QutesTypeError):
            run("quint[2] a = 9q;")

    def test_zero_size_rejected(self):
        with pytest.raises(QutesSyntaxError):
            run("quint[0] a = 1q;")

    def test_sized_classical_type_rejected(self):
        with pytest.raises(QutesSyntaxError):
            run("int[3] a = 1;")

    def test_sized_type_str(self):
        sized = QutesType.sized(QutesType.quint(), 4)
        assert str(sized) == "quint[4]"
        assert sized.kind is TypeKind.QUINT


class TestQuantumIndexing:
    def test_index_reads_bit(self):
        # 5 = 0b101: qubit 0 set, qubit 1 clear, qubit 2 set
        result = run("quint a = 5q; print a[0]; print a[1]; print a[2];")
        assert result.output == ["true", "false", "true"]

    def test_index_view_shares_qubit(self):
        source = """
            quint[3] a = 0q;
            paulix a[1];
            print a;
        """
        assert run(source).printed == "2"

    def test_index_out_of_range(self):
        from repro.lang import QutesRuntimeError

        with pytest.raises(QutesRuntimeError):
            run("quint[2] a = 0q; print a[5];")

    def test_index_used_as_gate_target(self):
        source = """
            quint[2] a = 0q;
            qubit flag = |0>;
            paulix a[0];
            cx(a[0], flag);
            print flag;
        """
        assert run(source).printed == "true"


class TestTwoRegisterBuiltins:
    def test_cx_flips_when_control_set(self):
        assert run("qubit c = 1q; qubit t = 0q; cx(c, t); print t;").printed == "true"

    def test_cx_identity_when_control_clear(self):
        assert run("qubit c = 0q; qubit t = 0q; cx(c, t); print t;").printed == "false"

    def test_cx_pairwise_on_registers(self):
        # 0b101 xor'd into 0b011 -> 0b110
        assert run("quint[3] a = 5q; quint[3] b = 3q; cx(a, b); print b;").printed == "6"

    def test_cx_creates_bell_correlation(self):
        outputs = {
            run("qubit a = |+>; qubit b = |0>; cx(a, b); print a == b;", seed=s).printed
            for s in range(8)
        }
        assert outputs == {"true"}

    def test_swap_exchanges_values(self):
        result = run("quint[3] a = 5q; quint[3] b = 2q; swap(a, b); print a; print b;")
        assert result.output == ["2", "5"]

    def test_cz_preserves_basis_values(self):
        assert run("quint[2] a = 3q; quint[2] b = 3q; cz(a, b); print b;").printed == "3"

    def test_size_mismatch_rejected(self):
        with pytest.raises(QutesTypeError):
            run("quint[3] a = 1q; qubit b = 0q; cx(a, b);")

    @pytest.mark.parametrize("gate", ["cx", "cz", "swap"])
    def test_a_register_paired_with_itself_is_refused(self, gate):
        with pytest.raises(QutesRuntimeError, match=f"{gate}\\(\\) needs two distinct registers"):
            run(f"quint a = 3q; {gate}(a, a);")
        with pytest.raises(QutesRuntimeError, match="needs two distinct registers"):
            run(f"quint a = 3q; {gate}(a[0], a[0]);")

    def test_classical_operands_are_promoted(self):
        assert run("qubit t = 0q; cx(true, t); print t;").printed == "true"


class TestStandardLibrary:
    def test_list_programs(self):
        names = list_programs()
        assert "quantum_addition" in names
        assert "grover_substring" in names
        assert len(names) >= 8

    def test_get_program_unknown(self):
        from repro.lang import QutesError

        with pytest.raises(QutesError):
            get_program("does_not_exist")

    def test_every_program_runs(self):
        for name in list_programs():
            result = run_source(get_program(name), seed=11)
            assert result.output, f"program {name} produced no output"

    def test_parameterised_program(self):
        source = get_program("quantum_addition", a=7, b=8)
        assert run_source(source, seed=1).printed == "15"

    def test_cyclic_shift_parameters(self):
        source = get_program("cyclic_shift", width=4, value=1, amount=1)
        assert run_source(source, seed=1).printed == "2"

    def test_program_metrics(self):
        metrics = program_metrics("quantum_addition", seed=3)
        assert isinstance(metrics, ProgramMetrics)
        assert metrics.source_lines >= 3
        assert metrics.generated_gates > metrics.source_lines
        assert metrics.expansion_factor > 1
        assert metrics.output == "42"

    def test_deutsch_jozsa_programs_classify_correctly(self):
        balanced = run_source(get_program("deutsch_jozsa_balanced"), seed=2)
        constant = run_source(get_program("deutsch_jozsa_constant"), seed=2)
        assert balanced.printed == "balanced"
        assert constant.printed == "constant"

    def test_quantum_counter(self):
        assert run_source(get_program("quantum_counter", limit=3), seed=4).printed == "3"
