"""Text formats for code specifications and vectors.

A spec file is a JSON document with a `field` block and a `code` block;
a vector file is one value per line (or one comma-separated line) with an
optional `index:` header naming which index set the entries run over.
"""

from __future__ import annotations

import json

from avcodes.codes import CodeSpec, hermitian_curve_points, make_code
from avcodes.field import Field, build_field
from avcodes.orders import MonomialOrder
from avcodes.transform import domain_points


class SpecFileError(ValueError):
    """The document is structurally malformed (as opposed to semantically invalid)."""


VECTOR_INDEX_NAMES = ("psi", "A", "R", "information")


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise SpecFileError(f"missing {where}.{key}")
    return block[key]


def _int_list(raw, where: str) -> list[int]:
    if not isinstance(raw, list) or not all(isinstance(x, int) for x in raw):
        raise SpecFileError(f"{where} must be a list of integers")
    return raw


def _point_list(raw, where: str) -> list[tuple[int, ...]]:
    if not isinstance(raw, list):
        raise SpecFileError(f"{where} must be a list of exponent tuples")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or not all(isinstance(x, int) for x in entry):
            raise SpecFileError(f"{where} entries must be integer tuples")
        out.append(tuple(entry))
    return out


def parse_spec_document(doc: dict) -> CodeSpec:
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object")
    fblock = _need(doc, "field", "document")
    cblock = _need(doc, "code", "document")
    if not isinstance(fblock, dict) or not isinstance(cblock, dict):
        raise SpecFileError("field and code blocks must be objects")

    p = _need(fblock, "p", "field")
    m = fblock.get("m", 1)
    modulus = fblock.get("modulus")
    alpha = fblock.get("alpha")
    if not isinstance(p, int) or not isinstance(m, int):
        raise SpecFileError("field.p and field.m must be integers")
    if modulus is not None:
        modulus = _int_list(modulus, "field.modulus")
    if alpha is not None and not isinstance(alpha, (int, str)):
        raise SpecFileError("field.alpha must be an integer or a string")
    field = build_field(p, m, modulus=modulus, alpha=alpha)

    nvars = _need(cblock, "N", "code")
    if not isinstance(nvars, int):
        raise SpecFileError("code.N must be an integer")
    weights = _int_list(_need(cblock, "weights", "code"), "code.weights")
    if len(weights) != nvars:
        raise SpecFileError("code.weights length must equal code.N")
    tiebreak = cblock.get("tiebreak", [])
    if not isinstance(tiebreak, list) or not all(
        isinstance(t, list) and len(t) == 2 and all(isinstance(x, int) for x in t)
        for t in tiebreak
    ):
        raise SpecFileError("code.tiebreak must be a list of [axis, direction] integer pairs")
    order = MonomialOrder(tuple(weights), tuple(map(tuple, tiebreak)))

    raw_psi = _need(cblock, "psi", "code")
    if raw_psi == "torus":
        psi = domain_points(field.q, nvars)
    elif raw_psi == "hermitian":
        psi = hermitian_curve_points(field)
    else:
        psi = _point_list(raw_psi, "code.psi")

    has_r = "R" in cblock
    has_cutoff = "weight_cutoff" in cblock
    if has_r == has_cutoff:
        raise SpecFileError("code needs exactly one of R and weight_cutoff")
    r_set = _point_list(cblock["R"], "code.R") if has_r else None
    cutoff = cblock.get("weight_cutoff")
    if has_cutoff and not isinstance(cutoff, int):
        raise SpecFileError("code.weight_cutoff must be an integer")
    phi = _point_list(cblock["phi"], "code.phi") if "phi" in cblock else None
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SpecFileError("name must be a string")
    return make_code(
        field, order, psi, r_set=r_set, weight_cutoff=cutoff, phi=phi, name=name
    )


def parse_spec_text(text: str) -> CodeSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise SpecFileError(f"not valid JSON: {ex}") from ex
    return parse_spec_document(doc)


def load_spec(path: str) -> CodeSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def spec_to_document(spec: CodeSpec) -> dict:
    field = spec.field
    fblock: dict = {"p": field.p, "m": field.m}
    if field.m > 1:
        fblock["modulus"] = list(field.modulus)
        fblock["alpha"] = field.alpha
    cblock = {
        "N": spec.order.nvars,
        "weights": list(spec.order.weights),
        "tiebreak": [list(t) for t in spec.order.tiebreak],
        "psi": [list(pt) for pt in spec.psi],
        "R": [list(a) for a in spec.r_set],
    }
    if spec.phi is not None:
        cblock["phi"] = [list(pt) for pt in spec.phi]
    doc = {"field": fblock, "code": cblock}
    if spec.name:
        doc["name"] = spec.name
    return doc


def serialize_spec(spec: CodeSpec) -> str:
    return json.dumps(spec_to_document(spec), indent=2) + "\n"


# -- vector files


def parse_vector_text(text: str, field: Field) -> tuple[str | None, list[int]]:
    """Read a vector file body: (declared index name or None, values)."""
    index = None
    tokens: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("index:"):
            if tokens or index is not None:
                raise SpecFileError(f"line {line_no}: stray index header")
            index = body[len("index:"):].strip()
            if index not in VECTOR_INDEX_NAMES:
                raise SpecFileError(f"line {line_no}: unknown index set {index!r}")
            continue
        tokens.extend(tok.strip() for tok in body.split(",") if tok.strip())
    try:
        values = [field.parse(tok) for tok in tokens]
    except ValueError as ex:
        raise SpecFileError(str(ex)) from ex
    return index, values


def format_vector(
    values, field: Field, index: str | None = None, int_form: bool = False
) -> str:
    lines = []
    if index is not None:
        if index not in VECTOR_INDEX_NAMES:
            raise SpecFileError(f"unknown index set {index!r}")
        lines.append(f"index: {index}")
    lines.extend(field.format(v, int_form=int_form) for v in values)
    return "\n".join(lines) + "\n"
