import io
import json

import pytest

from avcodes import cli
from avcodes.codes import encode_dual_nonsystematic, hermitian_preset, rs_preset
from avcodes.specfile import serialize_spec, spec_to_document

RECEIVED = "index: psi\n1,9,0,4,1,7,3,2,0,10\n"
CODEWORD = "index: psi\n2,9,0,4,1,7,3,2,0,5\n"
INFO = "index: information\n1,7,3,2,0,5\n"


@pytest.fixture
def rs_spec(tmp_path):
    path = tmp_path / "rs.json"
    path.write_text(serialize_spec(rs_preset()))
    return str(path)


@pytest.fixture
def herm_spec(tmp_path):
    path = tmp_path / "hermitian.json"
    path.write_text(serialize_spec(hermitian_preset()))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_field_info_prime(capsys):
    assert cli.main(["field", "info", "--p", "11"]) == 0
    out = capsys.readouterr().out
    assert "order: 11" in out
    assert "modulus" not in out


def test_field_info_extension(capsys):
    argv = ["field", "info", "--p", "3", "--m", "2", "--modulus", "2,1,1",
            "--alpha", "3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "order: 9" in out
    assert "modulus coefficients (constant first): 2 1 1" in out
    assert "a^1=3" in out


def test_code_make_writes_canonical_form(rs_spec, tmp_path, capsys):
    out_path = tmp_path / "canonical.json"
    assert cli.main(["code", "make", "--spec", rs_spec, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["code"]["R"] == [[0], [1], [2], [3]]
    assert cli.main(["code", "make", "--spec", rs_spec]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_code_describe(herm_spec, capsys):
    assert cli.main(["code", "describe", "--spec", herm_spec]) == 0
    out = capsys.readouterr().out
    assert "length n: 24" in out
    assert "dimension k: 15" in out
    assert "designed distance: 7" in out


def test_encode_systematic(rs_spec, tmp_path, capsys):
    info = write(tmp_path, "info.txt", INFO)
    assert cli.main(["encode", "--spec", rs_spec, "--in", info]) == 0
    assert capsys.readouterr().out == "index: psi\n2\n9\n0\n4\n1\n7\n3\n2\n0\n5\n"


def test_encode_nonsystematic_from_stdin(rs_spec, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1,7,3,2,0,5\n"))
    argv = ["encode", "--spec", rs_spec, "--mode", "nonsystematic"]
    assert cli.main(argv) == 0
    cw = capsys.readouterr().out
    message = {(4,): 1, (5,): 7, (6,): 3, (7,): 2, (9,): 5}
    expected = encode_dual_nonsystematic(rs_preset(), message)
    assert [int(v) for v in cw.splitlines()[1:]] == [
        expected[pt] for pt in rs_preset().psi
    ]
    word = write(tmp_path, "cw.txt", cw)
    assert cli.main(["check", "--spec", rs_spec, "--in", word]) == 0


def test_decode_corrects_two_errors(rs_spec, tmp_path, capsys):
    word = write(tmp_path, "rx.txt", RECEIVED)
    assert cli.main(["decode", "--spec", rs_spec, "--in", word]) == 0
    out = capsys.readouterr().out
    assert "status: corrected" in out
    assert "codeword: 2 9 0 4 1 7 3 2 0 5" in out
    assert "errors: (0)=10 (9)=5" in out
    assert "  6 + 4*x + x^2" in out


def test_decode_erasures_at_capacity(rs_spec, tmp_path, capsys):
    word = write(tmp_path, "cw.txt", CODEWORD)
    argv = ["decode", "--spec", rs_spec, "--in", word, "--erasures", "1,4,6,8"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "codeword: 2 9 0 4 1 7 3 2 0 5" in out


def test_decode_failure_exits_4(rs_spec, tmp_path, capsys):
    word = write(tmp_path, "cw.txt", CODEWORD)
    argv = ["decode", "--spec", rs_spec, "--in", word, "--erasures", "0,1,2,3,4"]
    assert cli.main(argv) == 4
    out = capsys.readouterr().out
    assert "status: failure" in out
    assert "reason:" in out


def test_check_reports_residue(rs_spec, tmp_path, capsys):
    word = write(tmp_path, "rx.txt", RECEIVED)
    assert cli.main(["check", "--spec", rs_spec, "--in", word]) == 4
    out = capsys.readouterr().out
    assert "parity residue: (0)=4 (1)=7 (2)=3 (3)=1" in out
    clean = write(tmp_path, "cw.txt", CODEWORD)
    assert cli.main(["check", "--spec", rs_spec, "--in", clean]) == 0
    assert "parity: clean" in capsys.readouterr().out


def test_encode_decode_round_trip_through_files(herm_spec, tmp_path, capsys):
    info = write(
        tmp_path, "info.txt",
        "index: information\n" + "\n".join("a^1 0 a^5 0 2 0 1 0 a^7 0 5 0 3 0 7".split()) + "\n",
    )
    assert cli.main(["encode", "--spec", herm_spec, "--in", info]) == 0
    word = write(tmp_path, "cw.txt", capsys.readouterr().out)
    assert cli.main(["decode", "--spec", herm_spec, "--in", word]) == 0
    out = capsys.readouterr().out
    assert "status: corrected" in out
    assert "errors: none" in out


def test_decode_int_form(herm_spec, tmp_path, capsys):
    zeros = write(tmp_path, "zeros.txt", "index: psi\n" + "0\n" * 24)
    argv = ["decode", "--spec", herm_spec, "--in", zeros, "--int-form"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "codeword: " + " ".join(["0"] * 24) in out
    assert "a^" not in out.split("locator basis:")[0]


def test_demo_commands_pass_their_self_checks(capsys):
    assert cli.main(["demo", "rs"]) == 0
    out = capsys.readouterr().out
    assert "systematic codeword: 2 9 0 4 1 7 3 2 0 5" in out
    assert cli.main(["demo", "hermitian"]) == 0
    out = capsys.readouterr().out
    assert "a^4 + y^2" in out
    assert "all bases and recovered values verified" in out


def test_bench_runs_and_respects_empty_sizes(capsys):
    assert cli.main(["bench", "--sizes", "11:1"]) == 0
    out = capsys.readouterr().out
    assert "11 1 10 100 100" in out
    assert cli.main(["bench", "--sizes", ""]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert all(ln.startswith("#") for ln in lines)
    assert len(lines) == 2


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{ not json")
    assert cli.main(["code", "describe", "--spec", bad]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("field", "modulus", 7),
        ("field", "alpha", 3.0),
        ("field", "alpha", [3]),
        ("code", "weights", ["a", "b"]),
        ("code", "tiebreak", 5),
        ("code", "tiebreak", [[1, 1, 1]]),
    ],
)
def test_badly_shaped_spec_exits_2(block, key, value, tmp_path, capsys):
    doc = spec_to_document(hermitian_preset())
    doc[block][key] = value
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    assert cli.main(["code", "describe", "--spec", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["code", "describe", "--spec", missing]) == 2
    capsys.readouterr()


def test_wrong_index_header_exits_2(rs_spec, tmp_path, capsys):
    word = write(tmp_path, "bad.txt", "index: A\n1,2\n")
    assert cli.main(["decode", "--spec", rs_spec, "--in", word]) == 2
    assert "expected 'psi'" in capsys.readouterr().err


def test_semantic_violations_exit_3(rs_spec, tmp_path, capsys):
    short = write(tmp_path, "short.txt", "1,2,3\n")
    assert cli.main(["decode", "--spec", rs_spec, "--in", short]) == 3
    word = write(tmp_path, "cw.txt", CODEWORD)
    argv = ["decode", "--spec", rs_spec, "--in", word, "--erasures", "42"]
    assert cli.main(argv) == 3
    capsys.readouterr()


def test_bad_bench_sizes_exit_2(capsys):
    assert cli.main(["bench", "--sizes", "11x1"]) == 2
    assert "want q:N" in capsys.readouterr().err
