"""End-to-end command-line tests against temporary spec files."""

import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import cli, feedback, kalman, qsys
from qlinbae.xferfn import frequency_sweep


def _write(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _michelson_doc():
    return cli.emit_spec(qsys.michelson_system())


def _broken_doc():
    doc = _michelson_doc()
    doc["S"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    return doc


# ------------------------------------------------------------- round trips

def test_matrix_encoding_roundtrip():
    mat = np.array([[1.0 + 2.0j, -3.0], [0.0, 4.0j]])
    encoded = cli.emit_complex_matrix(mat)
    decoded = cli.parse_complex_matrix(encoded, "test")
    assert np.array_equal(decoded, mat)


def _emit_per_entry(mat):
    """The entry-by-entry emitter that emit_complex_matrix replaced."""
    mat = np.atleast_2d(np.asarray(mat))
    return [[[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in mat]


@pytest.mark.parametrize("mat", [
    np.array([[1.0 + 2.0j, -3.0 - 0.5j], [1e-300j, 4.0j]]),
    np.array([[1.5, -3.0], [0.0, 2.0 ** 60]]),
    np.array([[1, -3], [0, 7]]),
    np.array([[np.nan, np.inf], [-np.inf, complex(np.nan, -np.inf)]]),
    np.array([[-0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), 1.0]]),
    np.array([[complex(0.1, 0.2)]]),
    np.array([0.1, -0.2j, 3]),
], ids=["complex", "real", "integer", "nan_inf", "negative_zero", "1x1", "1d"])
def test_emit_matches_the_per_entry_emitter(mat):
    new, old = cli.emit_complex_matrix(mat), _emit_per_entry(mat)
    # repr tells NaN, -0.0 and int from float apart, where == does not
    assert repr(new) == repr(old)
    assert json.dumps(new, indent=2) == json.dumps(old, indent=2)
    assert all(type(x) is float for row in new for pair in row for x in pair)


def _parse_per_entry(node, where):
    """The entry-by-entry decoder that parse_complex_matrix replaced."""
    def entry(x):
        if type(x) in (int, float):
            return complex(x)
        if (isinstance(x, list) and len(x) == 2
                and all(type(v) in (int, float) for v in x)):
            return complex(x[0], x[1])
        raise ValueError(
            f"{where}: entries must be numbers or [re, im] pairs, got {x!r}")

    if not isinstance(node, list) or not node:
        raise ValueError(f"{where}: expected a non-empty matrix (list of rows)")
    rows = node if isinstance(node[0], list) and (
        not node[0] or type(node[0][0]) in (list, int, float)) else [node]
    if (len(node) == 2 and all(type(v) in (int, float) for v in node)):
        return np.array([[entry(node)]])
    out = [[entry(x) for x in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise ValueError(f"{where}: ragged rows {sorted(widths)}")
    return np.array(out, dtype=complex)


_numbers = st.one_of(
    st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                     2.0**60]))
_scalars = st.one_of(_numbers, st.booleans(), st.none(), st.text(max_size=4),
                     st.text(alphabet='"\\/\n\t\x00 é☃\u2028', max_size=4))


@st.composite
def _grids(draw, entries):
    """A rows x cols list of lists of `entries`; cols may be 0."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    row = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


_entries = st.one_of(_numbers, st.lists(_numbers, min_size=2, max_size=2))
_matrix_nodes = st.one_of(
    _grids(_entries), st.lists(_entries, min_size=1, max_size=4),
    st.recursive(_scalars, lambda kids: st.lists(kids, max_size=3),
                 max_leaves=12))


@given(_matrix_nodes)
@settings(max_examples=200, deadline=None)
def test_decoder_matches_the_per_entry_decoder(node):
    """The vectorized decoder returns the per-entry decoder's matrix bit for
    bit, mixed scalar and [re, im] entries included, and rejects what it
    rejects with the same message. A row that is not a list is a ValueError
    naming the matrix: the per-entry decoder raised TypeError on a number
    row and took an empty string for an empty row."""
    try:
        want = _parse_per_entry(node, "S")
    except (ValueError, TypeError) as exc:
        want = exc
    try:
        got = cli.parse_complex_matrix(node, "S")
    except ValueError as exc:
        got = exc
    if "every row must be a list" in str(got):
        assert not all(type(row) is list for row in node)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is ValueError and str(got) == str(want)


def _emitted(shape):
    size = int(np.prod(shape))
    values = st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True),
                      min_size=size, max_size=size)
    return values.map(lambda v: cli.emit_complex_matrix(
        np.array(v, dtype=complex).reshape(shape)))


_matrices = st.sampled_from([(3,), (1, 1), (2, 3), (4, 4)]).flatmap(_emitted)
_documents = st.recursive(
    st.one_of(_scalars, _matrices, _grids(_numbers)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=20)


@given(_documents)
@settings(max_examples=200, deadline=None)
def test_writer_is_indented_json_dumps(doc):
    """Nested dicts and lists of numbers (NaN, infinities, -0.0, big ints),
    booleans, null, escaped and non-ASCII strings, empty containers and
    emitted 1-D, 1x1 and n x m matrices: the writer's text is json.dumps's."""
    assert cli._json_text(doc, 0) == json.dumps(doc, indent=2)


def test_import_loads_no_scipy():
    """Importing the package and its CLI loads no scipy; the designer loads
    scipy.optimize only when a start is handed to the trust region, here
    forced by a Newton refinement that returns its start."""
    code = textwrap.dedent("""
        import json, sys
        import qlinbae, qlinbae.cli
        def loaded():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
        def design():
            return qlinbae.feedback.design_couplings(
                [[0.0]], [[0.5j]], (1, 1), s_b_candidates=("-i",),
                search_cfg=qlinbae.feedback.SearchConfig(n_starts=1))
        at_import = loaded()
        found = len(design())
        after_newton = "scipy.optimize" in loaded()
        qlinbae.feedback._newton = lambda x0, *model: x0
        design()
        print(json.dumps([at_import, found, after_newton,
                          "scipy.optimize" in loaded()]))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, found, after_newton, after_hand_off = json.loads(proc.stdout)
    assert at_import == []
    assert found and not after_newton
    assert after_hand_off


def test_spec_roundtrip(tmp_path):
    path = _write(tmp_path, _michelson_doc())
    sys_obj, _ = cli.load_spec(path)
    ref = qsys.michelson_system()
    assert np.allclose(sys_obj.c_minus, ref.c_minus)
    assert np.allclose(sys_obj.omega_minus, ref.omega_minus)


def test_load_spec_rejects_missing_key(tmp_path):
    doc = _michelson_doc()
    del doc["C_plus"]
    path = _write(tmp_path, doc)
    with pytest.raises(ValueError):
        cli.load_spec(path)


_ONE = [1, 0]
_ZERO = [0, 0]


@pytest.mark.parametrize("value", [
    [[[True, False], [False, False]], [[False, False], [True, False]]],
    [[_ONE, _ZERO], [_ZERO, ["1", 0]]],
    [[_ONE, _ZERO], [_ONE]],
    [],
    [[[1, 0, 0], _ZERO], [_ZERO, _ONE]],
    [[_ONE, _ZERO], 5],
], ids=["boolean", "string", "ragged", "empty", "three_element_entry",
        "row_not_a_list"])
def test_validate_rejects_malformed_matrices(tmp_path, capsys, value):
    doc = _michelson_doc()
    doc["S"] = value
    assert cli.main(["validate", _write(tmp_path, doc)]) == 1
    assert "error: S: " in capsys.readouterr().err


@pytest.mark.parametrize("command,section,value", [
    (["simulate"], "sim", 5),
    (["simulate"], "sim", None),
    (["feedback", "reduce"], "feedback", 5),
    (["feedback", "design"], "feedback", 5),
    (["kalman"], "kalman", 5),
    (["validate"], None, 5),
], ids=["sim_number", "sim_null", "feedback_reduce_number",
        "feedback_design_number", "kalman_number", "top_level_number"])
def test_spec_sections_must_be_objects(tmp_path, capsys, command, section, value):
    """A present optional section, and the spec itself, must be a JSON
    object; anything else is a one-line error, not a traceback."""
    doc = value if section is None else {**_michelson_doc(), section: value}
    assert cli.main([*command, _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if section is None:
        assert "top level must be a JSON object" in err
    else:
        assert f"spec section {section!r} must be a JSON object" in err


@pytest.mark.parametrize("modes", [True, 1.0])
def test_validate_rejects_boolean_dimensions(tmp_path, capsys, modes):
    doc = cli.emit_spec(qsys.new_system(np.eye(1), np.ones((1, 1)),
                                        np.zeros((1, 1)), np.zeros((1, 1)),
                                        np.zeros((1, 1))))
    doc["modes"] = modes
    assert cli.main(["validate", _write(tmp_path, doc)]) == 1
    assert "declared modes/channels" in capsys.readouterr().err


# ----------------------------------------------------------------- commands

def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, _michelson_doc())
    assert cli.main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_validate_broken_exits_nonzero(tmp_path, capsys):
    path = _write(tmp_path, _broken_doc())
    assert cli.main(["validate", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert out["violations"]


def test_validate_uses_requested_tolerance(tmp_path, capsys):
    # S = (1 + 1e-6) I is unitary within 1e-3 but not within the default 1e-9
    doc = _michelson_doc()
    doc["S"] = cli.emit_complex_matrix((1.0 + 1e-6) * np.eye(2))
    path = _write(tmp_path, doc)
    assert cli.main(["validate", path, "--tol", "1e-3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["violations"] == []
    assert out["tolerance"] == 1e-3
    assert cli.main(["validate", path]) == 1


def test_parser_reuse_leaks_no_values(tmp_path, capsys):
    """One parser serves every call in a process; no flag's value carries
    over into the next call."""
    assert cli.build_parser() is cli.build_parser()
    doc = _michelson_doc()
    doc["S"] = cli.emit_complex_matrix((1.0 + 1e-6) * np.eye(2))
    near = _write(tmp_path, doc, "near_unitary.json")
    assert cli.main(["validate", near, "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-3
    assert cli.main(["validate", near]) == 1
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-9
    path = _write(tmp_path, _michelson_doc())
    sweep = tmp_path / "sweep.csv"
    assert cli.main(["tf", path, "--sweep", "0.5", "2.0", "4",
                     "--out", str(sweep)]) == 0
    assert len(sweep.read_text().splitlines()) == 5
    assert cli.main(["tf", path, "--omega", "2"]) == 0
    out = json.loads(capsys.readouterr().out)  # no --sweep or --out carried over
    assert out["omega"] == 2.0
    first = cli.build_parser().parse_args(["tf", path])
    assert first is not cli.build_parser().parse_args(["tf", path])


def test_realize_quadrature(tmp_path, capsys):
    path = _write(tmp_path, _michelson_doc())
    assert cli.main(["realize", path, "--form", "quad"]) == 0
    out = json.loads(capsys.readouterr().out)
    a = cli.parse_complex_matrix(out["A"], "A")
    assert a.shape == (4, 4)
    assert np.allclose(np.imag(a), 0.0)


def test_tf_single_frequency(tmp_path, capsys):
    path = _write(tmp_path, _michelson_doc())
    assert cli.main(["tf", path, "--omega", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    g = cli.parse_complex_matrix(out["G"], "G")
    assert g.shape == (4, 4)


def test_tf_sweep_csv(tmp_path):
    path = _write(tmp_path, _michelson_doc())
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["tf", path, "--sweep", "0.5", "2.0", "4",
                     "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 frequencies


def test_tf_sweep_rows_match_numpy_formatting(tmp_path):
    """Each CSV field is f"{x:.12g}" of the numpy value, NaN rows included:
    with zero coupling the poles sit on the axis at omega = 1 and 2."""
    zero = np.zeros((1, 2))
    system = qsys.new_system(np.eye(1), zero, zero, np.diag([1.0, 2.0]),
                             np.zeros((2, 2)))
    path = _write(tmp_path, cli.emit_spec(system))
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["tf", path, "--sweep", "0.5", "2.0", "3",
                     "--out", str(out_file)]) == 0
    omegas = np.logspace(np.log10(0.5), np.log10(2.0), 3)
    values = frequency_sweep(qsys.quad_realization(system), omegas)
    expected = [",".join([f"{w:.12g}"] + [f"{x:.12g}" for x in values[k].ravel()])
                for k, w in enumerate(omegas)]
    assert out_file.read_text().splitlines()[1:] == expected
    assert any("nan" in row for row in expected)


@pytest.mark.parametrize("sweep", [("0", "100", "4"), ("-1", "100", "4"),
                                   ("1", "inf", "4"), ("nan", "100", "4"),
                                   ("1", "100", "2.7"), ("1", "100", "0"),
                                   ("1", "100", "inf")])
def test_tf_sweep_rejects_bad_bounds(tmp_path, capsys, sweep):
    path = _write(tmp_path, _michelson_doc())
    out_file = tmp_path / "sweep.csv"
    assert cli.main(["tf", path, "--sweep", *sweep, "--out", str(out_file)]) == 1
    assert "--sweep" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("args", [
    ["validate", "--tol", "nan"], ["validate", "--tol", "inf"],
    ["bae", "--tol", "-1"], ["bae", "--tol", "0"], ["qnd", "--tol", "-inf"],
    ["tf", "--omega", "nan"], ["tf", "--omega", "inf"], ["tf", "--omega", "-inf"],
])
def test_rejects_tol_and_omega_that_mean_nothing(tmp_path, capsys, args):
    """--tol must be finite and > 0 and --omega finite: anything else exits
    1 with one line naming the flag, and writes no output."""
    command, flag, value = args
    path = _write(tmp_path, _michelson_doc())
    out_file = tmp_path / "out.json"
    assert cli.main([command, path, f"{flag}={value}", "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and flag in err
    assert not out_file.exists()


def test_bae_reports_certified_pair(tmp_path, capsys):
    path = _write(tmp_path, _michelson_doc())
    assert cli.main(["bae", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema_version"] == cli.SCHEMA_VERSION == 2
    assert ["q_out", "p_in"] in out["certified_pairs"]
    assert any("q_coupling_imag_C" == m["id"]
               for m in out["matched_conditions"])
    certs = out["block_certificates"]
    assert sorted(certs) == ["pp", "pq", "qp", "qq"]
    for cert in certs.values():
        assert sorted(cert) == ["node_max", "probe_ratio", "scale", "threshold", "zero"]
        assert cert["threshold"] == 1e-9 * cert["scale"]
        assert cert["zero"] == (cert["node_max"] <= cert["threshold"]
                                and cert["probe_ratio"] <= 1)
    assert certs["qp"]["zero"] and not certs["pq"]["zero"]


def test_qnd_command(tmp_path, capsys):
    path = _write(tmp_path, _michelson_doc())
    assert cli.main(["qnd", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["qnd_interaction"] is False  # the interferometer's L and H do not commute
    assert "qnd_variables" in out and "siso" not in out
    assert out["qnd_variables"]["dimension"] == 0
    assert out["qnd_variables"]["witnesses"] == []


def test_qnd_command_reports_the_qnd_subspace(tmp_path, capsys):
    # C- = -C+ and Omega- = -Omega+: p evolves on its own and is seen
    c = [[1.0 + 0.5j]]
    sys_obj = qsys.new_system(np.eye(1), c, [[-1.0 - 0.5j]], [[0.3]], [[-0.3]])
    path = _write(tmp_path, cli.emit_spec(sys_obj))
    assert cli.main(["qnd", path]) == 0
    rep = json.loads(capsys.readouterr().out)["qnd_variables"]
    assert rep["p_is_qnd"] is True and rep["q_is_qnd"] is False
    assert rep["case_matched"] == "p_coupling"
    assert rep["dimension"] == 1 and rep["isotropy_residual"] == 0.0
    assert [w["output"] for w in rep["witnesses"]] == ["q", "p"]
    assert all(w["rank"] == 1 and w["full"] for w in rep["witnesses"])


def _one_mode_doc(c_minus, c_plus, omega_minus, omega_plus):
    return {"modes": 1, "channels": 1, "S": [[1.0]],
            **{key: [[[x.real, x.imag]]] for key, x in (
                ("C_minus", c_minus), ("C_plus", c_plus),
                ("Omega_minus", omega_minus), ("Omega_plus", omega_plus))}}


@pytest.mark.parametrize("cmd", ["bae", "qnd"])
def test_verdicts_keep_the_time_unit(tmp_path, capsys, cmd):
    """Each spec pair is one system, the second written in a time unit of
    c = 1e-6 (C -> sqrt(c) C, Omega -> c Omega): bae is consistent with the
    same matched conditions in both, and qnd names the same case."""
    c = 1e-6
    pair = {"bae": (1j, 0.5j, 1.0, 0.3 + 0.2j), "qnd": (1.0, 1.0, 1.0, 0.5)}[cmd]
    reports = []
    for unit in (1.0, c):
        cm, cp, om, op = pair
        path = _write(tmp_path, _one_mode_doc(np.sqrt(unit) * cm, np.sqrt(unit) * cp,
                                              unit * om, unit * op))
        assert cli.main([cmd, path, "--tol", "1e-6"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    first, moved = reports
    if cmd == "bae":
        assert first["consistent"] is moved["consistent"] is True
        assert moved["matched_conditions"] == first["matched_conditions"]
    else:
        assert (moved["qnd_variables"]["case_matched"]
                == first["qnd_variables"]["case_matched"])


def _anchor_network_doc():
    return {
        "modes": 2, "channels": 2,
        "S": cli.emit_complex_matrix(np.eye(2)),
        "C_minus": cli.emit_complex_matrix(
            np.array([[1.0, 1.0 + 1.0j], [1.0 + 1.0j, 1.0 + 1.0j]])),
        "C_plus": cli.emit_complex_matrix(
            np.array([[1.0, 2.0 - 1.0j], [1.0 + 1.0j, 2.0 + 2.0j]])),
        "Omega_minus": cli.emit_complex_matrix(
            np.array([[2.0, 3.0 + 2.0j], [3.0 - 2.0j, 4.0]])),
        "Omega_plus": cli.emit_complex_matrix(
            np.array([[2.0, 3.0 - 1.0j], [3.0 - 1.0j, 5.0]])),
        "feedback": {
            "split": [1, 1],
            "k11": cli.emit_complex_matrix(np.array([[1.0, 1.0 + 1.0j]])),
            "k12": cli.emit_complex_matrix(np.array([[1.0, 2.0 - 1.0j]])),
            "k21": cli.emit_complex_matrix(np.array([[1.0 + 1.0j, 1.0 + 1.0j]])),
            "k22": cli.emit_complex_matrix(np.array([[1.0 + 1.0j, 2.0 + 2.0j]])),
            "beamsplitter": cli.emit_complex_matrix(-1j * np.eye(1)),
        },
    }


def test_feedback_reduce(tmp_path, capsys):
    path = _write(tmp_path, _anchor_network_doc())
    assert cli.main(["feedback", "reduce", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_passed"] is True
    assert out["reduced"]["channels"] == 1


def _anchor_network_in_unit(c, k_error=0.0):
    """The anchor network with time rescaled by c (C -> sqrt(c) C,
    Omega -> c Omega), its k** keys the rows of the rescaled C, times
    1 + k_error."""
    doc = _anchor_network_doc()
    parse, emit = cli.parse_complex_matrix, cli.emit_complex_matrix
    for key in ("C_minus", "C_plus"):
        doc[key] = emit(np.sqrt(c) * parse(doc[key], key))
    for key in ("Omega_minus", "Omega_plus"):
        doc[key] = emit(c * parse(doc[key], key))
    fb = doc["feedback"]
    for key in ("k11", "k12", "k21", "k22"):
        rows = parse(doc["C_minus" if key[2] == "1" else "C_plus"], key)
        fb[key] = emit((1.0 + k_error) * rows[:1] if key[1] == "1" else rows[1:])
    return doc


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_feedback_reduce_checks_k_at_any_time_unit(tmp_path, capsys, c):
    """The k** cross-check has no scale floor: exact keys pass and keys off
    by 1e-7 relative fail at the default tol, in every time unit."""
    exact = _write(tmp_path, _anchor_network_in_unit(c))
    assert cli.main(["feedback", "reduce", exact]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_passed"] is True
    off = _write(tmp_path, _anchor_network_in_unit(c, k_error=1e-7))
    assert cli.main(["feedback", "reduce", off]) == 1
    assert "feedback.k11 does not match" in capsys.readouterr().err


def test_feedback_reduce_checks_the_beamsplitter_at_tol(tmp_path, capsys):
    # s_b = (1 + 1e-6)(-i) is unitary within 1e-3 but not within 1e-9
    doc = _anchor_network_doc()
    doc["feedback"]["beamsplitter"] = cli.emit_complex_matrix(
        (1.0 + 1e-6) * -1j * np.eye(1))
    path = _write(tmp_path, doc)
    assert cli.main(["feedback", "reduce", path, "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_passed"] is True
    assert cli.main(["feedback", "reduce", path]) == 1
    assert "s_b must be unitary" in capsys.readouterr().err



def test_feedback_reduce_rejects_a_nan_beamsplitter(tmp_path, capsys):
    """A NaN never compares greater than the tolerance: the unitarity test
    must still fail on it, not let it on to an SVD that cannot converge."""
    doc = _anchor_network_doc()
    doc["feedback"]["beamsplitter"] = [[[float("nan"), 0.0]]]
    assert cli.main(["feedback", "reduce", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: s_b must be unitary\n"


def test_feedback_reduce_reduces_the_network_once(tmp_path, capsys, monkeypatch):
    """The report's reduced system is the one verify_reduction checked."""
    calls = []
    reduce_network = feedback.reduce_network

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce_network(*args, **kwargs)

    monkeypatch.setattr(feedback, "reduce_network", counted)
    assert cli.main(["feedback", "reduce", _write(tmp_path, _anchor_network_doc())]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_passed"] is True
    assert len(calls) == 1

def test_feedback_reduce_uses_the_spec_plant(tmp_path, capsys):
    """The spec's own system is the plant: its scattering matrix enters the
    reduction, and the optional k** keys are only checked against it."""
    base = qsys.random_system(np.random.default_rng(0), 2, 2)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    plant = qsys.new_system(rot, base.c_minus, base.c_plus,
                            base.omega_minus, base.omega_plus)
    s_b = -1j * np.eye(1)
    want = feedback.reduce_network(feedback.FeedbackNetwork(plant, 1, 1, s_b))
    emit = cli.emit_complex_matrix
    doc = {**cli.emit_spec(plant), "feedback": {
        "split": [1, 1], "beamsplitter": emit(s_b),
        "k11": emit(plant.c_minus[:1]), "k12": emit(plant.c_plus[:1]),
        "k21": emit(plant.c_minus[1:]), "k22": emit(plant.c_plus[1:])}}
    path = _write(tmp_path, doc)
    assert cli.main(["feedback", "reduce", path]) == 0
    with_keys = capsys.readouterr().out
    reduced = json.loads(with_keys)["reduced"]
    for key, value in (("S", want.s), ("C_minus", want.c_minus),
                       ("C_plus", want.c_plus),
                       ("Omega_minus", want.omega_minus),
                       ("Omega_plus", want.omega_plus)):
        assert np.array_equal(cli.parse_complex_matrix(reduced[key], key), value)

    for key in ("k11", "k12", "k21", "k22"):
        del doc["feedback"][key]
    assert cli.main(["feedback", "reduce", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == with_keys

    doc["feedback"]["k21"] = emit(plant.c_minus[1:] + 1e-3)
    assert cli.main(["feedback", "reduce", _write(tmp_path, doc)]) == 1
    assert "feedback.k21" in capsys.readouterr().err

    doc["feedback"]["split"] = [2, 0]
    assert cli.main(["feedback", "reduce", _write(tmp_path, doc)]) == 1
    assert "feedback.split" in capsys.readouterr().err


def _design_doc():
    """1 mode, 2 channels, Omega- = 0 and Omega+ = 0.5i: already purely
    imaginary, so the open-loop start certifies."""
    emit = cli.emit_complex_matrix
    return {"modes": 1, "channels": 2, "S": emit(np.eye(2)),
            "C_minus": emit(np.array([[1.0], [0.5]])),
            "C_plus": emit(np.array([[0.0], [0.0]])),
            "Omega_minus": emit(np.zeros((1, 1))),
            "Omega_plus": emit(np.array([[0.5j]])),
            "feedback": {"split": [1, 1]}}


def test_feedback_design(tmp_path, capsys):
    path = _write(tmp_path, _design_doc())
    assert cli.main(["feedback", "design", path, "--max-candidates", "3"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    out = json.loads(text)
    entries = out["candidates"]
    assert len(entries) == 3 <= out["n_candidates"]
    objectives = [e["objective"] for e in entries]
    assert objectives == sorted(objectives)
    assert objectives[-1] <= feedback.CANDIDATE_THRESHOLD
    assert all(e["certified_pairs"] for e in entries)


def test_feedback_design_rejects_negative_max_candidates(tmp_path, capsys, monkeypatch):
    """A negative --max-candidates would slice candidates off the end of the
    list: it exits 1 with one line naming the flag, before any search, and
    writes no output."""
    def no_search(*args, **kwargs):
        raise AssertionError("design_couplings called")

    monkeypatch.setattr(feedback, "design_couplings", no_search)
    path = _write(tmp_path, _design_doc())
    out_file = tmp_path / "out.json"
    assert cli.main(["feedback", "design", path, "--max-candidates", "-1",
                     "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--max-candidates" in err
    assert not out_file.exists()


def test_feedback_design_validates_the_split(tmp_path, capsys):
    """design checks feedback.split as reduce does, including the default
    [1, channels - 1], which is [1, 0] for a 1-channel spec."""
    doc = _michelson_doc()
    doc["feedback"] = {"split": [1, -1]}
    assert cli.main(["feedback", "design", _write(tmp_path, doc)]) == 1
    assert "feedback.split must be two positive integers" in capsys.readouterr().err
    one_channel = cli.emit_spec(qsys.new_system(
        np.eye(1), np.ones((1, 1)), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros((1, 1))))
    assert cli.main(["feedback", "design", _write(tmp_path, one_channel)]) == 1
    assert "feedback.split must be two positive integers" in capsys.readouterr().err


def test_feedback_design_names_the_default_split(tmp_path, capsys):
    """A one-channel spec with no feedback.split gets the default [1, 0]:
    the one error line says that it is the default and that the spec needs
    an explicit split, while a split the spec gives is reported as given."""
    one_channel = cli.emit_spec(qsys.new_system(
        np.eye(1), np.ones((1, 1)), np.zeros((1, 1)),
        np.zeros((1, 1)), np.zeros((1, 1))))
    assert cli.main(["feedback", "design", _write(tmp_path, one_channel)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "the default [1, channels - 1] = [1, 0]" in err
    assert "needs an explicit split" in err
    one_channel["feedback"] = {"split": [1, 0]}
    assert cli.main(["feedback", "design", _write(tmp_path, one_channel)]) == 1
    err = capsys.readouterr().err
    assert "got [1, 0]" in err and "default" not in err


@pytest.mark.parametrize("action", ["reduce", "design"])
def test_feedback_split_rejects_booleans(tmp_path, capsys, action):
    """JSON true is a Python int: a boolean split is one error line naming
    feedback.split, not a TypeError from np.eye(True)."""
    doc = _anchor_network_doc()
    doc["feedback"]["split"] = [True, True]
    assert cli.main(["feedback", action, _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: feedback.split must be two positive integers")
    assert len(err.splitlines()) == 1

def _kalman_doc():
    kappa = 2.0
    return {**_michelson_doc(), "kalman": {
        "A_co": cli.emit_complex_matrix(-0.5 * kappa * np.eye(2)),
        "B_co": cli.emit_complex_matrix(-np.sqrt(kappa) * np.eye(2)),
        "C_co": cli.emit_complex_matrix(np.sqrt(kappa) * np.eye(2))}}


def test_kalman_command(tmp_path, capsys):
    path = _write(tmp_path, _kalman_doc())
    assert cli.main(["kalman", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theorem"]["q_wrt_p"] and out["theorem"]["p_wrt_q"]
    assert out["markov_identity"]["premise_holds"]


@pytest.mark.parametrize("a_co,gamma_q,gamma_p", [
    (-np.eye(2), [[1.0]], [[1.0j]]),
    (np.array([[-1.0, 0.3, 0.0, 0.2], [0.1, -2.0, 0.5, 0.0],
               [0.0, 0.4, -1.5, 0.1], [0.2, 0.0, 0.3, -0.5]]),
     [[1.0 + 0.5j, 0.2], [0.3j, 1.0]], [[0.4, 1.0 - 0.2j], [0.5 + 1.0j, 0.1]]),
], ids=["kappa", "two_channel"])
def test_kalman_command_from_gamma(tmp_path, capsys, a_co, gamma_q, gamma_p):
    """A kalman section with A_co, Gamma_q and Gamma_p reports the theorem
    of the subsystem from_gamma assembles, its symmetry check included."""
    doc = {**_michelson_doc(), "kalman": {
        "A_co": cli.emit_complex_matrix(a_co),
        "Gamma_q": cli.emit_complex_matrix(np.array(gamma_q)),
        "Gamma_p": cli.emit_complex_matrix(np.array(gamma_p))}}
    assert cli.main(["kalman", _write(tmp_path, doc)]) == 0
    theorem = json.loads(capsys.readouterr().out)["theorem"]
    assert theorem == kalman.check_kalman_bae(
        kalman.from_gamma(a_co, gamma_q, gamma_p))
    assert theorem["re_gamma_product_symmetric"] is not None


@pytest.mark.parametrize("command,section", [
    (["kalman"], "kalman"), (["feedback", "reduce"], "feedback")])
def test_required_section_must_be_present(tmp_path, capsys, command, section):
    """kalman and feedback reduce read their whole input from a section: a
    spec without it is one error line naming the section."""
    assert cli.main([*command, _write(tmp_path, _michelson_doc())]) == 1
    assert capsys.readouterr().err == f"error: spec file has no {section!r} section\n"


@pytest.mark.parametrize("command,section,key", [
    (["feedback", "reduce"], "feedback", "split"),
    (["feedback", "reduce"], "feedback", "beamsplitter"),
    (["kalman"], "kalman", "A_co"),
    (["kalman"], "kalman", "B_co"),
    (["kalman"], "kalman", "C_co"),
    (["kalman"], "kalman", "Gamma_p"),
], ids=["feedback_split", "feedback_beamsplitter", "kalman_A_co",
        "kalman_B_co", "kalman_C_co", "kalman_Gamma_p"])
def test_a_missing_section_key_is_named(tmp_path, capsys, command, section, key):
    """A section without a key its command reads is one error line naming
    the section and the key, not the bare key of a KeyError. Gamma_p is
    read once Gamma_q is given."""
    doc = _anchor_network_doc() if section == "feedback" else _kalman_doc()
    if key == "Gamma_p":
        doc["kalman"] = {"A_co": cli.emit_complex_matrix(-np.eye(2)),
                         "Gamma_q": [[[1.0, 0.0]]], "Gamma_p": [[[0.0, 1.0]]]}
    del doc[section][key]
    assert cli.main([*command, _write(tmp_path, doc)]) == 1
    assert (capsys.readouterr().err
            == f"error: spec section {section!r} has no key {key!r}\n")


@pytest.mark.parametrize("key,value,words", [
    ("A_co", -np.eye(2) + 0.5j * np.eye(2), "must be real"),
    ("B_co", -np.eye(2) + 1e-3j, "must be real"),
    ("A_co", np.diag([float("nan"), -1.0]), "NaN or Inf"),
    ("C_co", np.diag([float("inf"), 1.0]), "NaN or Inf"),
], ids=["complex_A_co", "complex_B_co", "nan_A_co", "inf_C_co"])
def test_kalman_section_must_be_real_and_finite(tmp_path, capsys, key, value, words):
    """np.real would drop an imaginary part, and a NaN residual would be
    skipped by max: either entry exits 1 naming its key."""
    doc = _kalman_doc()
    doc["kalman"][key] = cli.emit_complex_matrix(value)
    assert cli.main(["kalman", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: kalman.{key} ") and words in err


def test_kalman_section_is_real_at_tol(tmp_path, capsys):
    """An imaginary part within --tol of the matrix is roundoff, and dropped."""
    doc = _kalman_doc()
    doc["kalman"]["A_co"] = cli.emit_complex_matrix(-np.eye(2) + 1e-12j)
    assert cli.main(["kalman", _write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["markov_identity"]["premise_holds"]

def test_simulate_command(tmp_path, capsys):
    doc = _michelson_doc()
    doc["sim"] = {"fock_dim": 3, "dt": 1e-3, "T": 0.01, "n_traj": 3,
                  "seed": 0}
    path = _write(tmp_path, doc)
    out_file = tmp_path / "traj.csv"
    assert cli.main(["simulate", path, "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("time,")
    assert len(lines) > 2
    err = capsys.readouterr().err
    assert err == json.dumps(json.loads(err), indent=2) + "\n"
    assert set(json.loads(err)) == {"martingale", "method", "replayed_blocks"}


@pytest.mark.parametrize("omega, method", [(1.0, "exact_law"),
                                           (0.0, "kraus")])
def test_simulate_reports_its_method(tmp_path, capsys, omega, method):
    """simulate's stderr summary names the method beside the martingale
    checks: the paper's QND mode (C- = C+ = 1, Omega- = Omega+ = 1, so
    H = q^2 commutes with L = sqrt(2) q) samples the exact law; with
    Omega+ = 0, H = a^dag a + 1/2 does not commute with q, and the Kraus
    map steps."""
    one = [[1.0]]
    doc = cli.emit_spec(qsys.new_system(np.eye(1), one, one, one,
                                        [[omega]]))
    doc["sim"] = {"fock_dim": 4, "dt": 1e-3, "T": 0.01, "n_traj": 3,
                  "seed": 0}
    out_file = tmp_path / "traj.csv"
    assert cli.main(["simulate", _write(tmp_path, doc),
                     "--out", str(out_file)]) == 0
    assert json.loads(capsys.readouterr().err)["method"] == method


def test_simulate_reports_replayed_blocks(tmp_path, capsys):
    """simulate's stderr summary counts the Kraus blocks replayed step by
    step beside the method: none on the negative control at dt = 1e-3,
    and its one block of 100 steps at dt = 0.2, whose norm drifts past
    the safe range."""
    half = [[0.5 ** 0.5]]
    doc = cli.emit_spec(qsys.new_system(np.eye(1), half, half, [[1.0]],
                                        [[-1.0]]))
    for dt, T, replayed in ((1e-3, 0.05, 0), (0.2, 20.0, 1)):
        doc["sim"] = {"fock_dim": 8, "dt": dt, "T": T, "n_traj": 8,
                      "seed": 0}
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dt \\* generator scale")
            assert cli.main(["simulate", _write(tmp_path, doc), "--out",
                             str(tmp_path / "traj.csv")]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["method"] == "kraus"
        assert summary["replayed_blocks"] == replayed


def _sim_doc(**sim):
    doc = _michelson_doc()
    doc["sim"] = {"fock_dim": 3, "dt": 1e-3, "T": 0.01, "n_traj": 3,
                  "seed": 0, **sim}
    return doc


def test_simulate_flag_overrides_whenever_given(tmp_path, capsys):
    """--T 0 is a zero-length run, not 'use the spec's T'."""
    out_file = tmp_path / "traj.csv"
    assert cli.main(["simulate", _write(tmp_path, _sim_doc()), "--T", "0",
                     "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("time,")
    assert lines[1:] == ["0,0,0,0,0"]


@pytest.mark.parametrize("sim,flags,key", [
    ({"dt": 0}, [], "dt"),
    ({"T": -1}, [], "T"),
    ({"n_traj": 1}, [], "n_traj"),
    ({"fock_dim": 1}, [], "fock_dim"),
    ({"n_traj": 2.5}, [], "n_traj"),
    ({"dt": True}, [], "dt"),
    ({"seed": "abc"}, [], "seed"),
    ({"seed": -1}, [], "seed"),
    ({}, ["--dt", "0"], "dt"),
    ({}, ["--dt", "nan"], "dt"),
    ({}, ["--T", "-1"], "T"),
    ({}, ["--T", "inf"], "T"),
    ({}, ["--traj", "0"], "n_traj"),
    ({}, ["--fock-dim", "1"], "fock_dim"),
], ids=["spec_dt_0", "spec_T_negative", "spec_n_traj_1", "spec_fock_dim_1",
        "spec_n_traj_fractional", "spec_dt_boolean", "spec_seed_string",
        "spec_seed_negative", "flag_dt_0", "flag_dt_nan", "flag_T_negative",
        "flag_T_inf", "flag_traj_0", "flag_fock_dim_1"])
def test_simulate_rejects_bad_settings(tmp_path, capsys, sim, flags, key):
    out_file = tmp_path / "traj.csv"
    path = _write(tmp_path, _sim_doc(**sim))
    assert cli.main(["simulate", path, *flags, "--out", str(out_file)]) == 1
    assert f"simulate setting {key} " in capsys.readouterr().err
    assert not out_file.exists()


def _siso_doc():
    return cli.emit_spec(qsys.new_system(np.eye(1), [[1.0j]], [[1.0j]],
                                         [[1.0]], [[0.5]]))


@pytest.mark.parametrize("command,doc,code", [
    (["validate"], _michelson_doc, 0),
    (["validate"], _broken_doc, 1),
    (["realize", "--form", "quad"], _michelson_doc, 0),
    (["realize", "--form", "ac"], _michelson_doc, 0),
    (["tf", "--omega", "2.0"], _michelson_doc, 0),
    (["bae"], _michelson_doc, 0),
    (["qnd"], _michelson_doc, 0),
    (["qnd"], _siso_doc, 0),
    (["feedback", "reduce"], _anchor_network_doc, 0),
    (["kalman"], _kalman_doc, 0),
], ids=["validate", "validate_broken", "realize_quad", "realize_ac", "tf",
        "bae", "qnd", "qnd_siso", "feedback_reduce", "kalman"])
def test_every_report_is_indented_json_dumps(tmp_path, command, doc, code):
    """Each report file holds json.dumps(report, indent=2) and a newline,
    byte for byte (the designer's report and simulate's stderr summary are
    checked in their own tests)."""
    out_file = tmp_path / "report.json"
    assert cli.main([*command, _write(tmp_path, doc()), "--out", str(out_file)]) == code
    text = out_file.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_unknown_spec_file_errors(capsys):
    assert cli.main(["validate", "/nonexistent/spec.json"]) == 1
