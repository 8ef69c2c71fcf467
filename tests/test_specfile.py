import json

import pytest

from avcodes.codes import CodeSpecError, hermitian_preset, rs_preset
from avcodes.field import build_field
from avcodes.specfile import (
    SpecFileError,
    format_vector,
    load_spec,
    parse_spec_text,
    parse_vector_text,
    serialize_spec,
    spec_to_document,
)

RS_DOC = {
    "name": "rs",
    "field": {"p": 11},
    "code": {
        "N": 1,
        "weights": [1],
        "psi": "torus",
        "R": [[0], [1], [2], [3]],
        "phi": [[0], [1], [2], [3]],
    },
}

HERM_DOC = {
    "field": {"p": 3, "m": 2, "modulus": [2, 1, 1], "alpha": 3},
    "code": {
        "N": 2,
        "weights": [3, 4],
        "tiebreak": [[1, 1]],
        "psi": "hermitian",
        "weight_cutoff": 11,
    },
}


def test_rs_document_matches_preset():
    spec = parse_spec_text(json.dumps(RS_DOC))
    assert spec == rs_preset()


def test_hermitian_document_matches_preset():
    spec = parse_spec_text(json.dumps(HERM_DOC))
    preset = hermitian_preset()
    assert spec.psi == preset.psi
    assert spec.r_set == preset.r_set
    assert (spec.n, spec.k) == (24, 15)


def test_hermitian_document_over_gf16():
    doc = json.loads(json.dumps(HERM_DOC))
    doc["field"] = {"p": 2, "m": 4}
    doc["code"].update(weights=[4, 5], weight_cutoff=19)
    spec = parse_spec_text(json.dumps(doc))
    assert (spec.n, spec.k) == (60, 46)


def test_hermitian_document_rejects_odd_degree():
    doc = json.loads(json.dumps(HERM_DOC))
    doc["field"] = {"p": 2, "m": 3}
    with pytest.raises(CodeSpecError):
        parse_spec_text(json.dumps(doc))


def test_round_trip_preserves_spec():
    for preset in (rs_preset(), hermitian_preset()):
        assert parse_spec_text(serialize_spec(preset)) == preset


def test_serialized_document_is_explicit():
    doc = spec_to_document(hermitian_preset())
    assert doc["field"]["modulus"] == [2, 1, 1]
    assert len(doc["code"]["psi"]) == 24
    assert len(doc["code"]["R"]) == 9
    assert "weight_cutoff" not in doc["code"]


def test_prime_field_document_omits_extension_data():
    doc = spec_to_document(rs_preset())
    assert "modulus" not in doc["field"]
    assert "alpha" not in doc["field"]


def test_explicit_point_list_psi():
    doc = {
        "field": {"p": 11},
        "code": {"N": 1, "weights": [1], "psi": [[i] for i in range(10)], "R": [[0]]},
    }
    spec = parse_spec_text(json.dumps(doc))
    assert spec.n == 10
    assert spec.k == 9


def test_load_spec_reads_files(tmp_path):
    path = tmp_path / "rs.json"
    path.write_text(serialize_spec(rs_preset()))
    assert load_spec(str(path)) == rs_preset()


def bad_documents():
    yield "not json"
    yield json.dumps({"code": RS_DOC["code"]})
    yield json.dumps({"field": RS_DOC["field"]})
    yield json.dumps([1, 2, 3])
    doc = json.loads(json.dumps(RS_DOC))
    doc["code"]["weight_cutoff"] = 3
    yield json.dumps(doc)  # both R and weight_cutoff
    doc = json.loads(json.dumps(RS_DOC))
    del doc["code"]["R"]
    yield json.dumps(doc)  # neither
    doc = json.loads(json.dumps(RS_DOC))
    doc["code"]["weights"] = [1, 2]
    yield json.dumps(doc)  # weight count != N
    doc = json.loads(json.dumps(RS_DOC))
    doc["code"]["psi"] = [[0], ["x"]]
    yield json.dumps(doc)
    doc = json.loads(json.dumps(RS_DOC))
    doc["name"] = 7
    yield json.dumps(doc)


@pytest.mark.parametrize("text", list(bad_documents()))
def test_malformed_documents_raise_spec_file_error(text):
    with pytest.raises(SpecFileError):
        parse_spec_text(text)


def test_semantic_problems_keep_their_own_error_class():
    # duplicate points are a semantic problem, not a file-format one
    doc = {
        "field": {"p": 11},
        "code": {"N": 1, "weights": [1], "psi": [[0], [0]], "R": [[0]]},
    }
    with pytest.raises(ValueError) as err:
        parse_spec_text(json.dumps(doc))
    assert not isinstance(err.value, SpecFileError)


def test_vector_text_comma_form():
    field = build_field(11)
    index, values = parse_vector_text("index: psi\n1, 9, 0, 4\n", field)
    assert index == "psi"
    assert values == [1, 9, 0, 4]


def test_vector_text_line_form_with_comments():
    field = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    text = "# received word\nindex: psi\na^1\n-1  # zero\na^5\n"
    index, values = parse_vector_text(text, field)
    assert index == "psi"
    assert values == [3, 0, 6]


def test_vector_text_header_is_optional():
    index, values = parse_vector_text("4\n7\n", build_field(11))
    assert index is None
    assert values == [4, 7]


def test_vector_text_rejects_stray_or_unknown_headers():
    field = build_field(11)
    with pytest.raises(SpecFileError):
        parse_vector_text("1\nindex: psi\n", field)
    with pytest.raises(SpecFileError):
        parse_vector_text("index: psi\nindex: psi\n", field)
    with pytest.raises(SpecFileError):
        parse_vector_text("index: omega\n1\n", field)


def test_vector_text_rejects_bad_tokens():
    with pytest.raises(SpecFileError):
        parse_vector_text("1, banana\n", build_field(11))


def test_format_vector_round_trip():
    field = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    values = [0, 1, 3, 7, 8]
    text = format_vector(values, field, index="psi")
    assert text.splitlines()[0] == "index: psi"
    index, back = parse_vector_text(text, field)
    assert (index, back) == ("psi", values)
    int_text = format_vector(values, field, index="psi", int_form=True)
    assert parse_vector_text(int_text, field) == ("psi", values)
    assert int_text.splitlines()[1:] == ["0", "1", "3", "7", "8"]


def test_format_vector_checks_index_name():
    with pytest.raises(SpecFileError):
        format_vector([1], build_field(11), index="omega")
