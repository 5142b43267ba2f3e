import json

import numpy as np
import pytest

from daereach import (
    ParseError,
    build_rotating_masses,
    load_initial_star,
    load_model,
    load_unsafe,
    rotating_masses_initial_star,
    save_initial_star,
    save_model,
    save_unsafe,
    UnsafeSpec,
)


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
        save_model(path, sys, inputs)
        loaded, loaded_inputs = load_model(path)
        assert np.array_equal(loaded.E, sys.E)
        assert np.array_equal(loaded.A, sys.A)
        assert np.array_equal(loaded.B, sys.B)
        assert np.array_equal(loaded_inputs.a_u, inputs.a_u)

    def test_awkward_floats_survive(self, tmp_path):
        E = np.array([[0.1 + 0.2, 0.0], [0.0, 0.0]])
        A = np.array([[np.pi, 1e-300], [3.0, -1.0 / 3.0]])
        from daereach import DaeSystem

        path = tmp_path / "model.json"
        save_model(path, DaeSystem(E, A))
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

    def test_integral_floats_are_sizes(self, tmp_path):
        doc = self.base_document()
        doc["n"] = 2.0
        doc["E"] = {"shape": [2.0, 2], "triples": [[1.0, 0, 3.0]]}
        system, _ = load_model(self.write(tmp_path, doc))
        assert system.E.tolist() == [[0.0, 0.0], [3.0, 0.0]]

    def test_nonsingular_e_propagates(self, tmp_path):
        from daereach import NonsingularEError

        doc = self.base_document()
        doc["E"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(NonsingularEError):
            load_model(self.write(tmp_path, doc))


class TestInitialStarIo:
    def test_round_trip(self, tmp_path):
        star = rotating_masses_initial_star()
        path = tmp_path / "init.json"
        save_initial_star(path, star)
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
        alphas = star.sample_coefficients(20, seed=0)
        assert np.allclose(alphas[:, 0], 1.0, atol=1e-9)
        points = star.sample_points(20, seed=0)
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
        spec = UnsafeSpec([[0.0, 0.0, 1.0, 0.0]], [-0.9])
        path = tmp_path / "unsafe.json"
        save_unsafe(path, spec)
        loaded = load_unsafe(path)
        assert np.array_equal(loaded.G, spec.G)
        assert np.array_equal(loaded.f, spec.f)
        assert loaded.on_original_state

    def test_row_mismatch(self, tmp_path):
        path = tmp_path / "unsafe.json"
        path.write_text(json.dumps({"G": [[1.0, 0.0]], "f": [1.0, 2.0]}))
        with pytest.raises(ParseError):
            load_unsafe(path)
