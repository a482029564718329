"""Command-line front end: system-spec parsing, analysis commands, and
report/CSV emission.

Spec files are JSON with keys modes, channels, S, C_minus, C_plus,
Omega_minus, Omega_plus; complex entries are two-element [re, im] arrays.
Optional sections, each a JSON object: feedback (split, beamsplitter, k11,
k12, k21, k22), kalman (A_co, B_co, C_co or Gamma_q/Gamma_p), sim (fock_dim,
dt, T, n_traj, seed). `feedback reduce` uses the spec's own system as the
plant; the optional k** keys are cross-checks that must match its rows of
C_minus (k11, k21) or C_plus (k12, k22) within --tol. Exit status:
0 success, 1 validation/precondition failure, 2 internal-consistency error.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import sys as _sys

import numpy as np

from . import bae, feedback, kalman, qnd, smesim
from .errors import InternalConsistencyError, QLinBAEError, ValidationError
from .matcore import DEFAULT_TOL, _negligible, inf_norm, is_real
from .qsys import ac_realization, new_system, quad_realization
from .xferfn import eval_tf, frequency_sweep

SCHEMA_VERSION = 2

# each spec matrix key, in file order, and the QuantumLinearSystem field it fills
_SPEC_MATRICES = {"S": "s", "C_minus": "c_minus", "C_plus": "c_plus",
                  "Omega_minus": "omega_minus", "Omega_plus": "omega_plus"}


# ---------------------------------------------------------------- encoding

_REAL = frozenset({int, float})  # by type(): a JSON boolean is an int subclass


def parse_complex_matrix(node, where):
    """Nested lists with scalar or [re, im] entries -> complex ndarray.

    Every entry becomes a pair (a scalar x becomes (x, 0)), the pairs'
    leaves are type-checked together and numpy converts them in one call.
    """
    if not isinstance(node, list) or not node:
        raise ValueError(f"{where}: expected a non-empty matrix (list of rows)")
    if len(node) == 2 and all(type(v) in _REAL for v in node):
        rows = [[node]]  # a bare [re, im] pair is a 1x1 matrix
    elif isinstance(node[0], list) and (
            not node[0] or type(node[0][0]) in (list, int, float)):
        rows = node
    else:
        rows = [node]
    not_lists = [row for row in rows if type(row) is not list]
    if not_lists:
        raise ValueError(f"{where}: every row must be a list, got {not_lists[0]!r}")
    pairs = [x if type(x) is list else (x, 0)
             for x in itertools.chain.from_iterable(rows)]
    leaves = list(itertools.chain.from_iterable(pairs))
    if not (set(map(len, pairs)) <= {2} and set(map(type, leaves)) <= _REAL):
        bad = next(p for p in pairs
                   if len(p) != 2 or not all(type(v) in _REAL for v in p))
        raise ValueError(f"{where}: entries must be numbers or [re, im] pairs, "
                         f"got {bad if type(bad) is list else bad[0]!r}")
    widths = set(map(len, rows))
    if len(widths) != 1:
        raise ValueError(f"{where}: ragged rows {sorted(widths)}")
    return np.array(leaves, dtype=float).view(complex).reshape(
        len(rows), widths.pop())


def emit_complex_matrix(mat):
    mat = np.atleast_2d(np.asarray(mat))
    return np.stack([mat.real, mat.imag], -1).astype(float).tolist()


def load_spec(path, tol=DEFAULT_TOL):
    """Parse a spec file and validate its system once, at tolerance tol."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"spec file {path}: top level must be a JSON object, "
                         f"got {doc!r}")
    for key in ("modes", "channels", *_SPEC_MATRICES):
        if key not in doc:
            raise ValueError(f"spec file {path}: missing key {key!r}")
    sys_obj = new_system(**{field: parse_complex_matrix(doc[key], key)
                            for key, field in _SPEC_MATRICES.items()}, tol=tol)
    declared = (doc["modes"], doc["channels"])
    if (declared != (sys_obj.n_modes, sys_obj.m_channels)
            or any(type(v) is not int for v in declared)):
        raise ValueError(
            f"spec file {path}: declared modes/channels "
            f"({doc['modes']}, {doc['channels']}) do not match matrix shapes "
            f"({sys_obj.n_modes}, {sys_obj.m_channels})")
    return sys_obj, doc


class _Section(dict):
    """The spec's section `name`, which must be a JSON object when present;
    empty when absent and not required. Reading a key it lacks raises a
    ValueError naming the section and the key."""

    def __init__(self, doc, name, required=False):
        if required and name not in doc:
            raise ValueError(f"spec file has no {name!r} section")
        sec = doc.get(name, {})
        if not isinstance(sec, dict):
            raise ValueError(f"spec section {name!r} must be a JSON object, got {sec!r}")
        super().__init__(sec)
        self.name = name

    def __missing__(self, key):
        raise ValueError(f"spec section {self.name!r} has no key {key!r}")


def emit_spec(sys_obj):
    return {"modes": sys_obj.n_modes, "channels": sys_obj.m_channels,
            **{key: emit_complex_matrix(getattr(sys_obj, field))
               for key, field in _SPEC_MATRICES.items()}}


def _record(obj, skip=()):
    """obj's dataclass fields but skip, by value: asdict would deep-copy."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if f.name not in skip}


# The C encoder: one line, ", " between items. It is the one json.dumps
# uses without indent; with indent=2 the standard library runs its
# pure-Python encoder instead, which costs about a microsecond per value.
_ONE_LINE = json.JSONEncoder().encode
_NUMBER_LEAVES = frozenset({float, int, bool, type(None)})


def _leaf_depth(items):
    """k when the non-empty list `items` nests lists exactly k deep with no
    empty list and only number, boolean or null leaves; None otherwise."""
    level, k = items, 1
    while True:
        kinds = set(map(type, level))
        if kinds <= _NUMBER_LEAVES:
            return k
        if kinds != {list} or not all(level):
            return None
        level, k = list(itertools.chain.from_iterable(level)), k + 1


def _grid_text(items, depth, k):
    """json.dumps(items, indent=2) of a list nested k deep as _leaf_depth
    requires, at nesting depth `depth`. Between two leaves the one-line
    text holds j closing brackets, ", " and j opening brackets, where j
    levels roll over; each such separator maps to one fixed indented one."""
    lead = ["\n" + "  " * (depth + i) for i in range(k + 1)]
    text = _ONE_LINE(items)[k:-k]
    for j in range(k - 1, -1, -1):
        closes = "".join(lead[i] + "]" for i in range(k - 1, k - 1 - j, -1))
        opens = "".join(lead[i] + "[" for i in range(k - j, k))
        text = text.replace("]" * j + ", " + "[" * j,
                            closes + "," + opens + lead[k])
    return ("".join("[" + lead[i] for i in range(1, k + 1)) + text
            + "".join(lead[i] + "]" for i in range(k - 1, -1, -1)))


def _json_text(doc, depth):
    """json.dumps(doc, indent=2), byte for byte, for doc nested `depth`
    levels deep. The C encoder writes every scalar and every list of
    numbers nested to one depth (each emitted matrix); the layout around
    them is joined here."""
    pad = "\n" + "  " * depth
    if type(doc) is dict and doc and all(type(key) is str for key in doc):
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(
            _ONE_LINE(key) + ": " + _json_text(value, depth + 1)
            for key, value in doc.items()) + pad + "}")
    if type(doc) is list and doc:
        k = _leaf_depth(doc)
        if k is not None:
            return _grid_text(doc, depth, k)
        inner = pad + "  "
        return ("[" + inner + ("," + inner).join(
            _json_text(item, depth + 1) for item in doc) + pad + "]")
    if type(doc) in _NUMBER_LEAVES or type(doc) is str:
        return _ONE_LINE(doc)
    # empty containers, tuples, subclasses, dicts with non-string keys;
    # no JSON string holds a raw newline, so each one is a line break
    return json.dumps(doc, indent=2).replace("\n", pad)


def _write(text, out):
    """text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _write_json(doc, out):
    _write(_json_text({"schema_version": SCHEMA_VERSION, **doc}, 0) + "\n", out)


def _write_csv(header, columns, out):
    """A header line, then one line per row of np.column_stack(columns),
    each field f"{x:.12g}"; no field needs CSV quoting."""
    row = ",".join(["{:.12g}"] * len(header)).format
    _write(",".join(header) + "\n" + "".join(
        row(*values) + "\n" for values in np.column_stack(columns).tolist()), out)


# ---------------------------------------------------------------- commands

def cmd_validate(args):
    try:
        load_spec(args.spec, args.tol)
        violations = []
    except ValidationError as exc:
        violations = exc.violations
    _write_json({"valid": not violations, "violations": violations,
                 "tolerance": args.tol}, args.out)
    return 0 if not violations else 1


def cmd_realize(args):
    sys_obj, _ = load_spec(args.spec, args.tol)
    r = ac_realization(sys_obj) if args.form == "ac" else quad_realization(sys_obj)
    _write_json({"form": r.form,
                 "A": emit_complex_matrix(r.a), "B": emit_complex_matrix(r.b),
                 "C": emit_complex_matrix(r.c), "D": emit_complex_matrix(r.d)},
                args.out)
    return 0


def cmd_tf(args):
    if not np.isfinite(args.omega):
        raise ValueError(f"--omega needs a finite frequency, got {args.omega:g}")
    if args.sweep:
        wmin, wmax, npts = args.sweep
        if not (np.isfinite(wmin) and np.isfinite(wmax) and wmin > 0 and wmax > 0
                and npts >= 1 and npts.is_integer()):
            raise ValueError("--sweep WMIN WMAX NPTS needs finite WMIN, WMAX > 0 "
                             f"and an integer NPTS >= 1, got {wmin:g} {wmax:g} {npts:g}")
    sys_obj, _ = load_spec(args.spec, args.tol)
    r = quad_realization(sys_obj)
    if args.sweep:
        omegas = np.logspace(np.log10(wmin), np.log10(wmax), int(npts))
        values = frequency_sweep(r, omegas)
        m = sys_obj.m_channels
        header = ["omega"] + [f"abs_G_{i}_{j}" for i in range(2 * m)
                              for j in range(2 * m)]
        _write_csv(header, [omegas, values.reshape(len(omegas), -1)], args.out)
    else:
        g = eval_tf(r, 1j * args.omega)
        _write_json({"omega": args.omega, "G": emit_complex_matrix(g)}, args.out)
    return 0


def cmd_bae(args):
    sys_obj, _ = load_spec(args.spec, args.tol)
    report = bae.certify_bae(sys_obj, tol=args.tol)
    _write_json({
        "tolerance": args.tol,
        "certified_pairs": sorted(list(p) for p in report.certified_pairs),
        "matched_conditions": [
            {"id": m.condition_id,
             "hypotheses": m.hypotheses_checked,
             "predicted_pairs": sorted(list(p) for p in m.predicted_pairs)}
            for m in report.matched_conditions],
        "consistent": report.consistency,
        "block_certificates": {name: _record(cert) for name, cert
                               in _record(report.pattern).items()},
    }, args.out)
    return 0


def cmd_qnd(args):
    sys_obj, _ = load_spec(args.spec, args.tol)
    interaction, coeffs = qnd._qnd_interaction(sys_obj, args.tol)
    doc = {
        "tolerance": args.tol,
        "commutator_residual": float(coeffs.max_norm()),
        "qnd_interaction": interaction,
        "coupling": qnd.coupling_properties(sys_obj, tol=args.tol),
    }
    rep = qnd.qnd_variable_report(sys_obj, tol=args.tol)
    doc["qnd_variables"] = {**_record(rep, skip=("basis",)),
                            "witnesses": list(map(_record, rep.witnesses))}
    if sys_obj.m_channels == 1:
        doc["siso"] = _record(qnd.siso_analysis(sys_obj, tol=args.tol))
    _write_json(doc, args.out)
    return 0


def _loop_split(split):
    """feedback.split as (m1, m2), two positive integers."""
    if not (isinstance(split, list) and len(split) == 2
            and all(type(v) is int and v >= 1 for v in split)):
        raise ValueError(f"feedback.split must be two positive integers, got {split!r}")
    return tuple(split)


def _network_from_doc(sys_obj, doc, tol):
    """The spec's system as the plant of its feedback section's loop. Each
    optional k** key must match its rows of C_minus or C_plus at the pair's
    own scale, with no floor (matcore._negligible), so that a change of
    time unit, which scales both alike, keeps the verdict."""
    fb = _Section(doc, "feedback", required=True)
    m1, m2 = _loop_split(fb["split"])
    net = feedback.FeedbackNetwork(
        plant=sys_obj, m1=m1, m2=m2,
        s_b=parse_complex_matrix(fb["beamsplitter"], "feedback.beamsplitter"),
        tol=tol)
    for key in ("k11", "k12", "k21", "k22"):
        if key not in fb:
            continue
        given = parse_complex_matrix(fb[key], f"feedback.{key}")
        block = getattr(net, key)
        if given.shape != block.shape or not _negligible(
                given - block, max(inf_norm(given), inf_norm(block)), tol):
            c_name = "C_minus" if key[2] == "1" else "C_plus"
            raise ValueError(f"feedback.{key} does not match its rows of "
                             f"{c_name} within tolerance {tol}")
    return net


def cmd_feedback(args):
    sys_obj, doc = load_spec(args.spec, args.tol)
    if args.action == "reduce":
        check = feedback.verify_reduction(_network_from_doc(sys_obj, doc, args.tol),
                                          tol=args.tol)
        _write_json({
            "tolerance": args.tol,
            "reduced": emit_spec(check.reduced),
            "oracle_max_deviation": check.max_deviation,
            "oracle_passed": check.passed,
        }, args.out)
        return 0
    # design
    if args.max_candidates < 0:
        raise ValueError(
            f"--max-candidates needs a value >= 0, got {args.max_candidates}")
    fb = _Section(doc, "feedback")
    if "split" not in fb and sys_obj.m_channels < 2:
        raise ValueError(
            "feedback.split must be two positive integers, got the default "
            f"[1, channels - 1] = [1, {sys_obj.m_channels - 1}]: a one-channel "
            "spec needs an explicit split")
    split = _loop_split(fb.get("split", [1, sys_obj.m_channels - 1]))
    cfg = feedback.SearchConfig(seed=args.seed)
    cands = feedback.design_couplings(sys_obj.omega_minus, sys_obj.omega_plus,
                                      split, search_cfg=cfg)
    _write_json({
        "omega_scale": feedback.omega_scale(sys_obj.omega_minus, sys_obj.omega_plus),
        "n_candidates": len(cands),
        "candidates": [{
            "objective": c.objective,
            "k11": emit_complex_matrix(c.k11), "k12": emit_complex_matrix(c.k12),
            "k21": emit_complex_matrix(c.k21), "k22": emit_complex_matrix(c.k22),
            "beamsplitter": emit_complex_matrix(c.s_b),
            "certified_pairs": sorted(list(p) for p in c.report.certified_pairs),
        } for c in cands[: args.max_candidates]],
    }, args.out)
    return 0


def cmd_kalman(args):
    _, doc = load_spec(args.spec, args.tol)
    sec = _Section(doc, "kalman", required=True)

    def read(key):
        """kalman.<key>: finite, and real at --tol unless it is a Gamma."""
        x = parse_complex_matrix(sec[key], f"kalman.{key}")
        gamma = key.startswith("Gamma")
        if not np.isfinite(x).all():
            raise ValueError(f"kalman.{key} has a NaN or Inf entry")
        if not (gamma or is_real(x, args.tol)):
            raise ValueError(f"kalman.{key} must be real within tolerance {args.tol}")
        return x if gamma else np.real(x)

    if "Gamma_q" in sec:
        k = kalman.from_gamma(*map(read, ("A_co", "Gamma_q", "Gamma_p")))
    else:
        k = kalman.KalmanCoSubsystem(*map(read, ("A_co", "B_co", "C_co")))
    verdict = kalman.check_kalman_bae(k, tol=args.tol)
    markov = kalman.markov_identity_check(k, tol=args.tol)
    _write_json({"tolerance": args.tol, "theorem": verdict,
                 "markov_identity": markov}, args.out)
    return 0


def cmd_simulate(args):
    sys_obj, doc = load_spec(args.spec, args.tol)
    sec = _Section(doc, "sim")
    # a flag overrides the spec whenever it is given; all are checked first
    count = lambda x: type(x) is int and x >= 2  # type(): JSON true is an int
    finite = lambda x: type(x) in (int, float) and np.isfinite(x)
    settings = []
    for key, flag, given, default, ok, requirement in (
            ("fock_dim", "--fock-dim", args.fock_dim, 8, count, "an integer >= 2"),
            ("dt", "--dt", args.dt, 1e-3, lambda x: finite(x) and x > 0, "finite, > 0"),
            ("T", "--T", args.T, 1.0, lambda x: finite(x) and x >= 0, "finite, >= 0"),
            ("n_traj", "--traj", args.traj, 500, count, "an integer >= 2"),
            ("seed", "--seed", args.seed, 0, lambda x: type(x) is int and x >= 0,
             "an integer >= 0")):
        value = given if given is not None else sec.get(key, default)
        if not ok(value):
            raise ValueError(f"simulate setting {key} ({flag} or sim.{key}) "
                             f"must be {requirement}, got {value!r}")
        settings.append(value)
    fock_dim, dt, T, n_traj, seed = settings
    store_every = max(1, smesim.step_count(dt, T) // 100)
    ops = smesim.build_truncated_operators(sys_obj, fock_dim)
    tracked = [(f"L{j}", 0.5 * (l + l.conj().T))
               for j, l in enumerate(ops.l_ops)]
    gs = np.zeros(ops.dim)
    gs[0] = 1.0
    rho0 = 0.5 * np.outer(gs, gs) + 0.5 * np.eye(ops.dim) / ops.dim
    batch = smesim.simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked,
                                 store_every=store_every)
    stats = smesim.martingale_stats(batch)
    header = ["time"] + [f"{e.name}_mean" for e in stats] + [
        f"{e.name}_se" for e in stats]
    columns = [batch.times] + [e.means for e in stats] + [
        e.standard_errors for e in stats]
    _write_csv(header, columns, args.out)
    summary = {e.name: _record(e, skip=("name", "means", "standard_errors"))
               for e in stats}
    print(_json_text({"martingale": summary, "method": batch.method,
                      "replayed_blocks": batch.replayed_blocks}, 0),
          file=_sys.stderr)
    return 0


# ---------------------------------------------------------------- driver

@functools.cache
def build_parser():
    """The argument parser, built once per process; each parse_args call
    returns a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="qlinbae",
        description="Analysis toolkit for linear quantum systems: "
                    "back-action-evasion certificates, QND checks, feedback "
                    "reduction, and trajectory simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *actions):
        """The subcommand's parser: [action,] spec, --tol, --out, and func."""
        sp = sub.add_parser(name, help=summary)
        if actions:
            sp.add_argument("action", choices=actions)
        sp.add_argument("spec", help="JSON system-spec file")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="tolerance for validating the spec and for the "
                             "command's checks")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.set_defaults(func=func)
        return sp

    command("validate", cmd_validate, "check structural invariants")
    sp = command("realize", cmd_realize, "emit a state-space realization")
    sp.add_argument("--form", choices=("ac", "quad"), default="quad")
    sp = command("tf", cmd_tf, "transfer-function values or sweep CSV")
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--sweep", nargs=3, type=float, default=None,
                    metavar=("WMIN", "WMAX", "NPTS"))
    command("bae", cmd_bae, "certify zero transfer-quadrature pairs")
    command("qnd", cmd_qnd, "interaction commutator analysis")
    sp = command("feedback", cmd_feedback, "network reduction / coupling design",
                 "reduce", "design")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-candidates", type=int, default=5)
    command("kalman", cmd_kalman, "canonical-form zero-product criteria")
    sp = command("simulate", cmd_simulate, "conditioned-state trajectories")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--fock-dim", type=int, default=None)
    sp.add_argument("--dt", type=float, default=None,
                    help="time step (default 1e-3); under a QND measurement "
                         "the exact law is sampled and dt sets only the "
                         "store grid")
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--traj", type=int, default=None)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol needs a finite value > 0, got {args.tol:g}")
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=_sys.stderr)
        return 2
    except (QLinBAEError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
