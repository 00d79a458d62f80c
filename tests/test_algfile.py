import copy
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bihomlie.algebra import heisenberg
from bihomlie.algfile import (AlgebraDocument, AlgebraFileError, dump, dumps,
                              load, loads)
from bihomlie.catalog import build
from bihomlie.fields import GF
from bihomlie.isomorphism import reduce_mod_p


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "field": "rational",
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "k": 1, "value": "1"},
                     {"i": 2, "j": 1, "k": 1, "value": "-1"}],
        "alpha": [["1", "0"], ["0", "1"]],
        "beta": [["1", "0"], ["0", "1"]],
    }
    doc.update(overrides)
    return doc


def roundtrip(L, metadata=None):
    return loads(dumps(AlgebraDocument(L, metadata)))


# --- round-trips -----------------------------------------------------------

def test_roundtrip_rational_algebras():
    for L in (heisenberg(1, 2, 3, [5], [7]),
              build("L_1^8", {"a": 2, "x": 3}),
              build("L_1^17", {"z": 2})):
        assert roundtrip(L).algebra == L


def test_roundtrip_prime_field_algebra():
    Lp = reduce_mod_p(build("L_2^1", {"b": 2, "y": 1}), 3)
    back = roundtrip(Lp)
    assert back.algebra == Lp
    assert back.algebra.field.characteristic == 3


def test_roundtrip_metadata():
    L = build("L_1^10", {})
    doc = roundtrip(L, {"name": "rigid pair", "source": "catalog"})
    assert doc.metadata == {"name": "rigid pair", "source": "catalog"}
    assert roundtrip(L).metadata is None


def test_serialize_is_canonical_fixed_point():
    text = dumps(AlgebraDocument(build("L_1^8", {"a": 2, "x": 3}),
                                 {"name": "scaled pair"}))
    assert dumps(loads(text)) == text
    assert text.endswith("\n")


def test_values_serialize_as_exact_strings():
    text = dumps(build("L_1^8", {"a": 2, "x": 3}))
    payload = json.loads(text)
    assert payload["brackets"][1]["value"] == "-3/2"
    assert all(isinstance(v, str)
               for row in payload["alpha"] for v in row)


def test_file_dump_and_load(tmp_path):
    path = tmp_path / "algebra.json"
    L = heisenberg(1, 2, 3, [5], [7])
    dump(AlgebraDocument(L, {"name": "h1"}), path)
    doc = load(path)
    assert doc.algebra == L
    assert doc.metadata == {"name": "h1"}


def test_load_missing_file(tmp_path):
    with pytest.raises(AlgebraFileError):
        load(tmp_path / "absent.json")


# --- accepted input shapes -------------------------------------------------

def test_integer_values_accepted():
    doc = minimal_doc(brackets=[{"i": 1, "j": 2, "k": 1, "value": 2},
                                {"i": 2, "j": 1, "k": 1, "value": -2}])
    L = loads(json.dumps(doc)).algebra
    assert L.structure[0][1] == (Fraction(2), Fraction(0))


def test_unlisted_brackets_are_zero():
    L = loads(json.dumps(minimal_doc(brackets=[]))).algebra
    assert all(L.structure[i][j] == (Fraction(0), Fraction(0))
               for i in range(2) for j in range(2))


def test_prime_field_values_reduce():
    doc = minimal_doc(field={"fp": 3},
                      brackets=[{"i": 1, "j": 2, "k": 1, "value": "1/2"},
                                {"i": 2, "j": 1, "k": 1, "value": "-1/2"}])
    L = loads(json.dumps(doc)).algebra
    assert L.structure[0][1][0] == GF(3).coerce(2)


# --- rejected input shapes -------------------------------------------------

@pytest.mark.parametrize("mutate", [
    {"format_version": 2},
    {"format_version": "1"},
    {"field": "real"},
    {"field": {"fp": 4}},
    {"field": {"fp": "3"}},
    {"dim": 0},
    {"dim": "2"},
    {"brackets": "none"},
    {"brackets": [{"i": 1, "j": 2, "value": "1"}]},
    {"brackets": [{"i": 0, "j": 2, "k": 1, "value": "1"}]},
    {"brackets": [{"i": 1, "j": 3, "k": 1, "value": "1"}]},
    {"brackets": [{"i": 1, "j": 2, "k": 1, "value": "1/0"}]},
    {"brackets": [{"i": 1, "j": 2, "k": 1, "value": 1.5}]},
    {"brackets": [{"i": 1, "j": 2, "k": 1, "value": "1"},
                  {"i": 1, "j": 2, "k": 1, "value": "2"}]},
    {"alpha": [["1", "0"]]},
    {"alpha": [["1", "0"], ["0", "x"]]},
    {"metadata": {"name": 3}},
    {"metadata": {"license": "MIT"}},
    {"extra": True},
    {"format_version": True},
    {"format_version": 1.0},
])
def test_rejected_documents(mutate):
    doc = minimal_doc(**mutate)
    with pytest.raises(AlgebraFileError):
        loads(json.dumps(doc))


def test_rejects_non_json_and_non_object():
    with pytest.raises(AlgebraFileError):
        loads("not json {")
    with pytest.raises(AlgebraFileError):
        loads("[1, 2]")


@pytest.mark.parametrize("text", ["1e3", "1.5", "1e999999999"])
def test_rejects_scalars_outside_the_exact_grammar(text):
    for mutate in ({"brackets": [{"i": 1, "j": 2, "k": 1, "value": text}]},
                   {"alpha": [[text, "0"], ["0", "1"]]}):
        with pytest.raises(AlgebraFileError, match="cannot parse value"):
            loads(json.dumps(minimal_doc(**mutate)))


def test_rejects_deeply_nested_json():
    with pytest.raises(AlgebraFileError, match="not valid JSON"):
        loads("[" * 100000)


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    with pytest.raises(AlgebraFileError, match="not UTF-8"):
        load(path)


def test_huge_modulus_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(AlgebraFileError, match="2\\^64"):
        loads(json.dumps(minimal_doc(field={"fp": 2 ** 127 - 1})))
    assert time.perf_counter() - start < 0.1


def test_prime_field_rejects_bad_denominator():
    doc = minimal_doc(field={"fp": 3},
                      brackets=[{"i": 1, "j": 2, "k": 1, "value": "1/3"}])
    with pytest.raises(AlgebraFileError):
        loads(json.dumps(doc))


def test_document_equality():
    L = build("L_1^10", {})
    assert AlgebraDocument(L, {"name": "a"}) == AlgebraDocument(L,
                                                               {"name": "a"})
    assert AlgebraDocument(L, {"name": "a"}) != AlgebraDocument(L, None)


# --- fuzzing -----------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# no leaf of the format accepts one of these: values are ints or strings,
# indices, sizes and versions ints, names strings
MISTYPED = (None, True, False, 0.5, 1.0, [], {})


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_truncated_and_mistyped_documents_are_refused():
    rng = random.Random(13)
    texts = []
    for golden in sorted(GOLDEN.glob("*.json")):
        text = golden.read_text(encoding="utf-8").rstrip()
        loads(text)  # the golden itself is accepted
        doc = json.loads(text)
        texts.extend(text[:cut] for cut in range(len(text)))
        leaves = list(_leaves(doc))
        for path in leaves:
            for value in MISTYPED:
                texts.append(json.dumps(_replaced(doc, path, value)))
        for _ in range(200):
            mutated = doc
            for path in rng.sample(leaves, rng.randint(2, 4)):
                mutated = _replaced(mutated, path, rng.choice(MISTYPED))
            texts.append(json.dumps(mutated))
    assert len(texts) == 6753
    for text in texts:
        with pytest.raises(AlgebraFileError):
            loads(text)
