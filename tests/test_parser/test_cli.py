"""Tests for the command-line interface and instance parsing."""

import pytest

from repro.cli import main
from repro.parser import ParseError, parse_instance
from repro.relational import Fact

MAPPING = """
SOURCE Employee/2. TARGET Office/2.
Employee(name, office) -> Office(name, office).
Office(name, o1), Office(name, o2) -> o1 = o2.
"""

DATA = """
Employee('ada', 'E14').
Employee('ada', 'W02').
Employee('bob', 'E15').
"""


@pytest.fixture
def files(tmp_path):
    mapping_path = tmp_path / "mapping.txt"
    mapping_path.write_text(MAPPING)
    data_path = tmp_path / "data.txt"
    data_path.write_text(DATA)
    return str(mapping_path), str(data_path)


class TestParseInstance:
    def test_basic(self):
        instance = parse_instance("R('a', 1). S('b', 'c').")
        assert set(instance) == {Fact("R", ("a", 1)), Fact("S", ("b", "c"))}

    def test_comments_and_whitespace(self):
        instance = parse_instance("% header\nR('a').\n# another\n")
        assert len(instance) == 1

    def test_variables_rejected(self):
        with pytest.raises(ParseError, match="not a constant"):
            parse_instance("R(x).")

    def test_empty(self):
        assert len(parse_instance("")) == 0


class TestCLI:
    def test_answer_certain(self, files, capsys):
        mapping_path, data_path = files
        code = main(
            ["answer", "-m", mapping_path, "-d", data_path,
             "-q", "q(n) :- Office(n, o)."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "q('ada')." in output and "q('bob')." in output

    def test_answer_possible(self, files, capsys):
        mapping_path, data_path = files
        main(
            ["answer", "-m", mapping_path, "-d", data_path, "--possible",
             "-q", "q(n, o) :- Office(n, o)."]
        )
        output = capsys.readouterr().out
        assert "q('ada', 'E14')." in output
        assert "q('ada', 'W02')." in output

    def test_answer_monolithic(self, files, capsys):
        mapping_path, data_path = files
        main(
            ["answer", "-m", mapping_path, "-d", data_path,
             "--method", "monolithic", "-q", "q(n, o) :- Office(n, o)."]
        )
        output = capsys.readouterr().out
        assert output.count("q(") == 1  # only bob's row is certain
        assert "q('bob', 'E15')." in output

    def test_check_inconsistent(self, files, capsys):
        mapping_path, data_path = files
        code = main(["check", "-m", mapping_path, "-d", data_path])
        output = capsys.readouterr().out
        assert code == 1
        assert "INCONSISTENT" in output
        assert "egd violations:      1" in output

    def test_check_consistent(self, tmp_path, capsys):
        mapping_path = tmp_path / "mapping.txt"
        mapping_path.write_text(MAPPING)
        data_path = tmp_path / "clean.txt"
        data_path.write_text("Employee('bob', 'E15').")
        code = main(["check", "-m", str(mapping_path), "-d", str(data_path)])
        assert code == 0
        assert "status: consistent" in capsys.readouterr().out

    def test_repairs(self, files, capsys):
        mapping_path, data_path = files
        code = main(["repairs", "-m", mapping_path, "-d", data_path])
        output = capsys.readouterr().out
        assert code == 0
        assert output.count("% repair") == 2
        assert "1 source fact(s) deleted" in output

    def test_repairs_limit(self, files, capsys):
        mapping_path, data_path = files
        main(["repairs", "-m", mapping_path, "-d", data_path, "--limit", "1"])
        assert capsys.readouterr().out.count("% repair") == 1

    @pytest.mark.parametrize("command", ["answer", "check", "repairs"])
    def test_wrong_arity_in_data_exits_2(self, tmp_path, command, capsys):
        mapping_path = tmp_path / "mapping.txt"
        mapping_path.write_text(MAPPING)
        data_path = tmp_path / "data.txt"
        data_path.write_text(DATA + "Employee('eve').\n")
        argv = [command, "-m", str(mapping_path), "-d", str(data_path)]
        if command == "answer":
            argv += ["-q", "q(n) :- Office(n, o)."]
        assert main(argv) == 2
        assert "Employee('eve') has 1 value(s)" in capsys.readouterr().err

    def test_wrong_arity_in_updates_exits_2(self, files, tmp_path, capsys):
        mapping_path, data_path = files
        updates_path = tmp_path / "updates.txt"
        updates_path.write_text("+Employee('eve', 'E16').\n\n+Employee('x').\n")
        code = main(
            ["answer", "-m", mapping_path, "-d", data_path,
             "-q", "q(n) :- Office(n, o).", "--updates", str(updates_path)]
        )
        assert code == 2
        assert "Employee('x') has 1 value(s)" in capsys.readouterr().err
