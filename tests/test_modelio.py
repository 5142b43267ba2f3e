import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daereach import (
    DaeError,
    ParseError,
    build_rotating_masses,
    load_directions,
    load_initial_star,
    load_model,
    load_unsafe,
    rotating_masses_initial_star,
)
from daereach.cli import EXIT_PARSE, main

from oracles import sample_coefficients, sample_points, write_json


class TestBuiltinAliases:
    def test_rotating_masses(self):
        sys, inputs = load_model("builtin:rotating-masses")
        reference, ref_inputs = build_rotating_masses()
        assert np.array_equal(sys.E, reference.E)
        assert np.array_equal(sys.A, reference.A)
        assert np.array_equal(sys.B, reference.B)
        assert np.array_equal(inputs.a_u, ref_inputs.a_u)

    def test_stokes_golden_dimensions(self):
        # k = 3: 12 interior face velocities + 8 free pressures
        sys, inputs = load_model("builtin:stokes:3")
        assert sys.n == 20
        assert sys.m == 1
        assert inputs.is_none

    def test_unknown_alias(self):
        with pytest.raises(ParseError):
            load_model("builtin:unknown")

    def test_bad_stokes_size(self):
        with pytest.raises(ParseError):
            load_model("builtin:stokes:x")


class TestModelRoundTrip:
    def test_bit_identical(self, tmp_path):
        sys, inputs = build_rotating_masses()
        path = tmp_path / "model.json"
        write_json(path, n=sys.n, m=sys.m, E=sys.E, A=sys.A, B=sys.B, A_u=inputs.a_u)
        loaded, loaded_inputs = load_model(path)
        assert np.array_equal(loaded.E, sys.E)
        assert np.array_equal(loaded.A, sys.A)
        assert np.array_equal(loaded.B, sys.B)
        assert np.array_equal(loaded_inputs.a_u, inputs.a_u)

    def test_loaded_arrays_are_kept_not_copied(self, tmp_path, monkeypatch):
        # the loader freezes what it builds, so DaeSystem and InputModel keep
        # those arrays, and it builds E and A as rows, which DaeSystem keeps
        # as they are; arrays a caller passes in are still copied
        import daereach.model
        from daereach.linalg import RowSparse

        sys, inputs = build_rotating_masses()
        path = tmp_path / "model.json"
        write_json(path, n=sys.n, m=sys.m, E=sys.E, A=sys.A, B=sys.B, A_u=inputs.a_u)
        received = []

        def readonly(arr):
            received.append(arr)
            return daereach.linalg.readonly(arr)

        monkeypatch.setattr(daereach.model, "readonly", readonly)
        loaded, loaded_inputs = load_model(path)
        kept = [loaded.B, loaded_inputs.a_u]
        assert sorted(id(a) for a in received) == sorted(id(a) for a in kept)
        assert not any(a.flags.writeable for a in kept)
        assert isinstance(loaded.E, RowSparse) and isinstance(loaded.A, RowSparse)
        assert daereach.model.DaeSystem(loaded.E, loaded.A).E is loaded.E
        E = np.array(sys.E)
        assert daereach.model.DaeSystem(E, sys.A).E is not E

    def test_awkward_floats_survive(self, tmp_path):
        E = np.array([[0.1 + 0.2, 0.0], [0.0, 0.0]])
        A = np.array([[np.pi, 1e-300], [3.0, -1.0 / 3.0]])
        path = tmp_path / "model.json"
        write_json(path, n=2, m=0, E=E, A=A)
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.E, E)
        assert np.array_equal(loaded.A, A)

    def test_sparse_and_dense_agree(self, tmp_path):
        dense = {
            "n": 2,
            "m": 0,
            "E": [[1.0, 0.0], [0.0, 0.0]],
            "A": [[-1.0, 1.0], [1.0, -2.0]],
        }
        sparse = {
            "n": 2,
            "m": 0,
            "E": {"shape": [2, 2], "triples": [[0, 0, 1.0]]},
            "A": {
                "shape": [2, 2],
                "triples": [[0, 0, -1.0], [0, 1, 1.0], [1, 0, 1.0], [1, 1, -2.0]],
            },
        }
        paths = []
        for name, doc in [("dense.json", dense), ("sparse.json", sparse)]:
            p = tmp_path / name
            p.write_text(json.dumps(doc))
            paths.append(p)
        a, _ = load_model(paths[0])
        b, _ = load_model(paths[1])
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.A, b.A)


class TestModelErrors:
    def base_document(self):
        return {
            "n": 2,
            "m": 0,
            "E": [[1.0, 0.0], [0.0, 0.0]],
            "A": [[-1.0, 1.0], [1.0, -2.0]],
        }

    def write(self, tmp_path, document):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        return path

    def test_non_square_e(self, tmp_path):
        doc = self.base_document()
        doc["E"] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ParseError, match="E"):
            load_model(self.write(tmp_path, doc))

    def test_missing_field(self, tmp_path):
        doc = self.base_document()
        del doc["A"]
        with pytest.raises(ParseError, match="A"):
            load_model(self.write(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match="line"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "nope.json")

    def test_bad_sparse_triple(self, tmp_path):
        doc = self.base_document()
        doc["E"] = {"shape": [2, 2], "triples": [[0, 0]]}
        with pytest.raises(ParseError, match="triple"):
            load_model(self.write(tmp_path, doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("E", {"shape": [2, 2], "triples": [[-2, 0, 1.0]]}),  # would wrap to row 0
            ("E", {"shape": [2, 2], "triples": [[0.7, 0, 1.0]]}),  # would truncate to row 0
            ("E", {"shape": [2, 2], "triples": [[0, 2, 1.0]]}),
            ("E", {"shape": [2, 2], "triples": [[0, 0, "BIG"]]}),
            ("E", {"shape": ["BIG", 2], "triples": []}),
            ("E", {"shape": [10**400, 2], "triples": []}),
            ("E", {"shape": [2.5, 2], "triples": []}),
            ("E", {"shape": [2, 2, 2], "triples": []}),
            ("n", "BIG"),
            ("n", 2.5),
            ("n", "2"),
            ("m", True),
        ],
    )
    def test_malformed_sizes_and_indices(self, tmp_path, capsys, key, value):
        from daereach.cli import EXIT_PARSE, main

        doc = self.base_document()
        doc[key] = value
        # 1e400 is valid JSON that json.dumps cannot write: Python reads it as inf
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
        with pytest.raises(ParseError):
            load_model(path)
        code = main(["--model", str(path), "--mode", "index", "--out", str(tmp_path / "out")])
        assert code == EXIT_PARSE
        lines = capsys.readouterr().err.strip().splitlines()
        assert json.loads(lines[-1])["error"] == "parse"

    def test_repeated_sparse_index_keeps_the_last_value(self, tmp_path):
        doc = self.base_document()
        doc["E"] = {
            "shape": [2, 2],
            "triples": [[0, 1, 5.0], [1, 0, 3.0], [0, 1, -0.0], [1, 0, 2.0], [0, 1, 7.0]],
        }
        system, _ = load_model(self.write(tmp_path, doc))
        assert system.E.dense().tolist() == [[0.0, 7.0], [2.0, 0.0]]
        doc["E"]["triples"] = [[1, 1, 4.0], [1, 1, -0.0]]
        system, _ = load_model(self.write(tmp_path, doc))
        assert np.signbit(system.E[1, 1]) and system.E[1, 1] == 0.0
        # past the dense size rule the triples are stored as rows, and a
        # repeated index still keeps the last value
        doc["n"] = 30
        doc["E"] = {"shape": [30, 30], "triples": [[2, 3, 1.0], [2, 3, -0.0], [4, 1, 5.0]]}
        doc["A"] = {"shape": [30, 30], "triples": [[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]]}
        system, _ = load_model(self.write(tmp_path, doc))
        assert np.signbit(system.E[2, 3]) and system.E[2, 3] == 0.0 and system.E[4, 1] == 5.0
        assert system.A[0, 0] == 3.0 and np.count_nonzero(system.A.dense()) == 1

    @pytest.mark.parametrize(
        "bad",
        [[0, 2, 1.0], [0.5, 0, 1.0], [True, 0, 1.0], [0, 0, "1"], [0, 0], None, [0, 0, 10**400]],
        ids=["index", "fraction", "bool", "string", "pair", "null", "huge-value"],
    )
    def test_error_names_the_first_bad_triple(self, tmp_path, bad):
        doc = self.base_document()
        later = [1, 5, 2.0]  # out of shape, after the first bad triple
        doc["E"] = {"shape": [2, 2], "triples": [[0, 0, 1.0], bad, [1, 1, 1.0], later]}
        with pytest.raises(ParseError, match="triple") as caught:
            load_model(self.write(tmp_path, doc))
        assert f"triple {bad!r}:" in str(caught.value)
        assert caught.value.field == "E"

    def test_integral_floats_are_sizes(self, tmp_path):
        doc = self.base_document()
        doc["n"] = 2.0
        doc["E"] = {"shape": [2.0, 2], "triples": [[1.0, 0, 3.0]]}
        system, _ = load_model(self.write(tmp_path, doc))
        assert system.E.dense().tolist() == [[0.0, 0.0], [3.0, 0.0]]

    def test_nonsingular_e_propagates(self, tmp_path):
        from daereach import NonsingularEError, decouple_system, to_autonomous

        doc = self.base_document()
        doc["E"] = [[1.0, 0.0], [0.0, 1.0]]
        loaded = to_autonomous(*load_model(self.write(tmp_path, doc)))
        with pytest.raises(NonsingularEError):
            decouple_system(loaded)


class TestInitialStarIo:
    def test_round_trip(self, tmp_path):
        star = rotating_masses_initial_star()
        path = tmp_path / "init.json"
        write_json(path, V=star.V, C=star.C, d=star.d)
        loaded = load_initial_star(path, 4, 2)
        assert np.array_equal(loaded.V, star.V)
        assert np.array_equal(loaded.C, star.C)
        assert np.array_equal(loaded.d, star.d)

    def test_original_rows_zero_lifted(self, tmp_path):
        doc = {"V": [[1.0], [2.0]], "C": [[1.0], [-1.0]], "d": [1.0, 1.0]}
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        star = load_initial_star(path, 2, 3)
        assert star.dim == 5
        assert np.array_equal(star.V[2:], np.zeros((3, 1)))

    def test_original_rows_with_input_block(self, tmp_path):
        doc = {
            "V": [[1.0], [2.0]],
            "U0": [[0.5]],
            "C": [[1.0], [-1.0]],
            "d": [1.0, 1.0],
        }
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        star = load_initial_star(path, 2, 1)
        assert star.dim == 3
        assert star.V[2, 0] == 0.5

    def test_center_form_folds_into_pinned_column(self, tmp_path):
        doc = {
            "center": [1.0, 2.0],
            "V": [[0.5], [0.0]],
            "C": [[1.0], [-1.0]],
            "d": [1.0, 1.0],
        }
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        star = load_initial_star(path, 2, 0)
        assert star.width == 2
        assert np.array_equal(star.V[:, 0], [1.0, 2.0])
        # the leading coefficient is pinned to one, so every point is
        # center + (combination of the remaining columns)
        alphas = sample_coefficients(star, 20, seed=0)
        assert np.allclose(alphas[:, 0], 1.0, atol=1e-9)
        points = sample_points(star, 20, seed=0)
        assert np.all(np.abs(points[:, 0] - 1.0) <= 0.5 + 1e-9)
        assert np.allclose(points[:, 1], 2.0, atol=1e-9)

    def test_wrong_row_count(self, tmp_path):
        doc = {"V": [[1.0], [2.0], [3.0]], "C": [[1.0], [-1.0]], "d": [1.0, 1.0]}
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="rows"):
            load_initial_star(path, 2, 2)

    def test_empty_predicate_is_a_parse_error(self, tmp_path):
        doc = {"V": [[1.0], [2.0]], "C": [[1.0], [-1.0]], "d": [-1.0, 0.0]}
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="star"):
            load_initial_star(path, 2, 0)


class TestUnsafeIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "unsafe.json"
        write_json(path, G=[[0.0, 0.0, 1.0, 0.0]], f=[-0.9], on_original_state=True)
        loaded = load_unsafe(path)
        assert np.array_equal(loaded.G, [[0.0, 0.0, 1.0, 0.0]])
        assert np.array_equal(loaded.f, [-0.9])
        assert loaded.on_original_state

    def test_row_mismatch(self, tmp_path):
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps({"G": [[1.0, 0.0]], "f": [1.0, 2.0]}))
        with pytest.raises(ParseError):
            load_unsafe(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("G", [[]]),  # zero columns
            ("G", {"shape": [1, 0], "triples": []}),
            ("on_original_state", "no"),  # bool("no") would read as true
            ("on_original_state", 0),
            ("on_original_state", None),
        ],
    )
    def test_malformed_unsafe_documents(self, tmp_path, capsys, key, value):
        document = {"G": [[0.0, 0.0, 1.0, 0.0]], "f": [-0.9], key: value}
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ParseError, match=key):
            load_unsafe(path)
        init, star = tmp_path / "init.json", rotating_masses_initial_star()
        write_json(init, V=star.V, C=star.C, d=star.d)
        argv = ["--model", "builtin:rotating-masses", "--init", str(init), "--unsafe", str(path)]
        code = main(argv + ["--time-bound", "0.1", "--out", str(tmp_path / "out")])
        assert code == EXIT_PARSE
        lines = capsys.readouterr().err.strip().splitlines()
        assert json.loads(lines[-1])["error"] == "parse"


def _documents():
    """Valid model, init, unsafe and directions documents for the rotating
    masses (n = 4, m = 2) that together make a completed verify run."""
    system, inputs = build_rotating_masses()
    star = rotating_masses_initial_star()
    A = system.A.dense()
    rows, cols = np.nonzero(A)
    triples = [[int(i), int(j), float(A[i, j])] for i, j in zip(rows, cols)]
    return {
        "model": {
            "n": 4,
            "m": 2,
            "E": system.E.dense().tolist(),
            "A": {"shape": [4, 4], "triples": triples},
            "B": system.B.tolist(),
            "A_u": inputs.a_u.tolist(),
        },
        "init": {  # center form, with the input rows of V given as U0
            "center": [0.0] * 4,
            "V": star.V[:4].tolist(),
            "U0": np.hstack([np.zeros((2, 1)), star.V[4:]]).tolist(),
            "C": star.C.tolist(),
            "d": star.d.tolist(),
        },
        "unsafe": {"G": [[0.0, 0.0, 1.0, 0.0]], "f": [-0.9], "on_original_state": True},
        "directions": {"D": [[0.0, 0.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0]]},
    }


LOADERS = {
    "model": load_model,
    "init": lambda path: load_initial_star(path, 4, 2),
    "unsafe": load_unsafe,
    "directions": load_directions,
}
FIELD_KINDS = {
    "n": "size", "m": "size", "E": "matrix", "A": "matrix", "B": "matrix", "A_u": "matrix",
    "center": "vector", "V": "matrix", "U0": "matrix", "C": "matrix", "d": "vector",
    "G": "matrix", "f": "vector", "on_original_state": "flag", "D": "matrix",
}
MUTATIONS = ("wrong-type", "non-finite", "wrong-shape", "zero-size", "drop")
DROP = object()


def _non_finite(value, variant):
    bad = (float("nan"), float("inf"), float("-inf"))[variant % 3]
    if isinstance(value, dict):  # a sparse matrix: spoil one triple's value
        triples = [list(t) for t in value["triples"]]
        triples[variant % len(triples)][2] = bad
        return {**value, "triples": triples}
    if isinstance(value, list) and value and isinstance(value[0], list):
        rows = [list(row) for row in value]
        row = rows[variant % len(rows)]
        row[variant // len(rows) % len(row)] = bad
        return rows
    if isinstance(value, list):
        return [bad if i == variant % len(value) else v for i, v in enumerate(value)]
    return bad


def _wrong_shape(value, kind, variant):
    if kind == "size":
        return (value + 1, value - 1, -1)[variant % 3]
    if kind == "flag":
        return [value]
    if kind == "vector":
        return (value[:-1], value + [0.0], [value])[variant % 3]
    if isinstance(value, dict):
        rows, cols = value["shape"]
        return {**value, "shape": ([rows + 1, cols], [rows, cols - 1], [rows, cols, 1])[variant % 3]}
    return (
        value[:-1],  # one row short
        [row[:-1] for row in value],  # one column short
        [row + [0.0] for row in value],  # one column too many
        [v for row in value for v in row],  # flattened
        [value],  # 3-D
    )[variant % 5]


def _mutated(value, kind, mutation, variant):
    """``value`` spoiled by ``mutation``; ``DROP`` removes the field."""
    if mutation == "drop":
        return DROP
    if mutation == "non-finite":
        return _non_finite(value, variant)
    if mutation == "wrong-shape":
        return _wrong_shape(value, kind, variant)
    if mutation == "wrong-type":
        choices = {
            "size": ("4", True, [4], None),
            "flag": ("no", 1, None, [True]),
        }.get(kind, ("text", True, 7, [["a"]], [[1.0], [1.0, 2.0]], {"shape": [1, 1], "triples": "x"}))
        return choices[variant % len(choices)]
    if kind == "size":
        return 0
    if kind == "flag":
        return []
    if kind == "vector":
        return ([], [[]])[variant % 2]
    rows = value["shape"][0] if isinstance(value, dict) else len(value)
    cols = value["shape"][1] if isinstance(value, dict) else len(value[0])
    return ([[]], {"shape": [rows, 0], "triples": []}, [], {"shape": [0, cols], "triples": []})[
        variant % 4
    ]


A_TRIPLES = _documents()["model"]["A"]["triples"]  # [0, 2, 1.0], [1, 3, 1.0], ...


class TestNonNumbers:
    """numpy reads ``true`` and ``"1"`` as 1.0; the loaders refuse both
    wherever a number is expected, naming the field, and the CLI exits 2."""

    @pytest.mark.parametrize(
        "name, field, value",
        # each holds the numbers of the value it replaces, so the run would
        # complete if it loaded
        [
            ("model", "B", [[True, 0], [0, "1"], [0, 0], [0, 0]]),
            ("init", "d", ["0.2", -0.1, 1.2, -1.0]),
            ("model", "A", {"shape": [4, 4], "triples": [[0, 2, True], *A_TRIPLES[1:]]}),
            ("model", "A", {"shape": [4, 4], "triples": [A_TRIPLES[0], [True, 3, 1.0], *A_TRIPLES[2:]]}),
        ],
        ids=["dense-matrix", "vector", "triple-value", "triple-index"],
    )
    def test_is_a_parse_error(self, tmp_path, capsys, name, field, value):
        documents = _documents()
        documents[name][field] = value
        for key in ("model", "init", "unsafe"):
            (tmp_path / f"{key}.json").write_text(json.dumps(documents[key]))
        with pytest.raises(ParseError, match=f"field '{field}'"):
            LOADERS[name](tmp_path / f"{name}.json")
        argv = [f"--{key}={tmp_path / key}.json" for key in ("model", "init", "unsafe")]
        assert main(argv + ["--time-bound", "0.1", "--out", str(tmp_path / "out")]) == EXIT_PARSE
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "parse" and f"field '{field}'" in error["message"]


CASES = [
    (name, field, mutation)
    for name, document in _documents().items()
    for field in document
    for mutation in MUTATIONS
]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 59))
@example(("unsafe", "G", "zero-size"), 0)  # G = [[]] once crashed verify with a traceback
@example(("unsafe", "G", "zero-size"), 1)  # and so did sparse shape [1, 0]
def test_malformed_documents_keep_the_error_contract(case, variant):
    """Every loader raises only :class:`DaeError` on a spoiled document, and
    the CLI then exits with a contract code and a JSON last stderr line."""
    name, field, mutation = case
    documents = _documents()
    value = _mutated(documents[name][field], FIELD_KINDS[field], mutation, variant)
    if value is DROP:
        del documents[name][field]
    else:
        documents[name][field] = value
    with tempfile.TemporaryDirectory() as scratch:
        paths = {key: Path(scratch, f"{key}.json") for key in documents}
        for key, document in documents.items():
            paths[key].write_text(json.dumps(document))
        try:
            LOADERS[name](paths[name])
            rejected = False
        except DaeError:
            rejected = True
        argv = ["--model", paths["model"], "--init", paths["init"], "--unsafe", paths["unsafe"]]
        argv += ["--directions", paths["directions"], "--out", Path(scratch, "out")]
        argv += ["--time-step", "0.05", "--time-bound", "0.5"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(arg) for arg in argv])
    # a document the loader accepts (an optional field dropped, say) may run
    assert code in ({2, 3, 4, 5, 6} if rejected else {0, 2, 3, 4, 5, 6})
    if code:
        error = json.loads(stderr.getvalue().strip().splitlines()[-1])
        assert set(error) == {"error", "message"}
