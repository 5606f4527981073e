"""Per-layer metrics, derived from the per-function statistics of one traced run.

Each metric names the end-to-end metric and workload it should move.  A metric
whose function no longer exists in the library is reported as missing (None),
never as 0; a function that exists but is not called on a workload reads 0.
"""

from __future__ import annotations

LAYERS = ("partitions", "exact", "exterior", "fock", "symfunc", "grassmann", "klmw")


def _field(functions: dict, name: str, key: str):
    stat = functions.get(name)
    return None if stat is None else stat.get(key, 0)


def _total(functions: dict, names, key: str):
    values = [_field(functions, name, key) for name in names]
    return None if None in values else sum(values)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _layer_self(functions: dict, layer: str) -> float:
    return sum(stat["self_s"] for name, stat in functions.items()
               if name.startswith(layer + "."))


def _calls_and_self(name: str) -> list:
    return [
        (f"{name}.calls", "count", lambda f: _field(f, name, "calls")),
        (f"{name}.self_s", "s", lambda f: _field(f, name, "self_s")),
    ]


GENERATORS = ("fock.psi_key", "fock.psi_star_key")
QUADRICS = ("grassmann.plucker_quadrics", "grassmann.omega_quadric_functionals",
            "grassmann.vectors_over")

# (name, unit, value from the {function: stats} table); see the module docstring
METRICS = [
    # -> wall_s on straighten (a little on kf)
    *_calls_and_self("partitions.maya_from_beads"),
    ("fock.psi_key.calls", "count", lambda f: _field(f, "fock.psi_key", "calls")),
    ("fock.psi_star_key.calls", "count", lambda f: _field(f, "fock.psi_star_key", "calls")),
    ("fock.gen.self_s", "s", lambda f: _total(f, GENERATORS, "self_s")),
    ("fock.gen.null_frac", "ratio",
     lambda f: _ratio(_total(f, GENERATORS, "none"), _total(f, GENERATORS, "calls"))),
    *_calls_and_self("fock.shuffle_adjoint"),
    ("fock.shuffle_adjoint.terms_out", "count",
     lambda f: _field(f, "fock.shuffle_adjoint", "terms_out")),
    ("fock.shuffle_adjoint.terms_per_gen", "terms/call",
     lambda f: _ratio(_field(f, "fock.shuffle_adjoint", "terms_out"),
                      _total(f, GENERATORS, "calls"))),
    # -> wall_s on straighten and kf
    *_calls_and_self("klmw.straighten_coeffs"),
    ("klmw.rewrites", "count", lambda f: _field(f, "fock.shuffle_adjoint", "rewrites")),
    ("klmw.d_matrix.self_s", "s", lambda f: _field(f, "klmw.d_matrix", "self_s")),
    # -> wall_s and peak_rss_mb on pluecker-ideal
    *_calls_and_self("exact.hermite_normal_form"),
    ("exact.hermite_normal_form.rows_max", "count",
     lambda f: _field(f, "exact.hermite_normal_form", "rows_max")),
    ("exact.hermite_normal_form.cols_max", "count",
     lambda f: _field(f, "exact.hermite_normal_form", "cols_max")),
    ("exact.hermite_normal_form.cells", "count",
     lambda f: _field(f, "exact.hermite_normal_form", "cells")),
    ("exact.IntMatrix.from_rows.self_s", "s",
     lambda f: _field(f, "exact.IntMatrix.from_rows", "self_s")),
    ("exact.lattice_equal.self_s", "s", lambda f: _field(f, "exact.lattice_equal", "self_s")),
    ("exact.lattice_rank.self_s", "s", lambda f: _field(f, "exact.lattice_rank", "self_s")),
    ("grassmann.quadrics.self_s", "s", lambda f: _total(f, QUADRICS, "self_s")),
    # -> wall_s on kf
    ("exact.invert_unitriangular.self_s", "s",
     lambda f: _field(f, "exact.invert_unitriangular", "self_s")),
    *_calls_and_self("symfunc.kostka_foulkes"),
    *_calls_and_self("symfunc.charge"),
    ("symfunc.kf_transition_matrices.self_s", "s",
     lambda f: _field(f, "symfunc.kf_transition_matrices", "self_s")),
    # -> wall_s on fpoints
    ("grassmann.enumerate_points.points", "count",
     lambda f: _field(f, "grassmann.enumerate_points", "items")),
    *_calls_and_self("grassmann.plucker_vector"),
    ("grassmann.minors", "count", lambda f: _field(f, "grassmann.plucker_vector", "minors")),
    *_calls_and_self("grassmann.is_invariant"),
    *_calls_and_self("exterior.t_shuffle"),
    # -> wall_s on pluecker-ideal and fpoints
    *_calls_and_self("exterior.ext_word_on_key"),
    *_calls_and_self("exterior.sort_with_sign"),
    # busy time of each layer: the self time of all its public functions
    *[(f"{layer}.self_s", "s", lambda f, layer=layer: _layer_self(f, layer))
      for layer in LAYERS],
]


def per_layer(record: dict, suite: str) -> dict:
    """{metric: (value, unit)} for one traced run of ``cli.suite_<suite>``."""
    functions = record["functions"]
    out = {name: (value(functions), unit) for name, unit, value in METRICS}
    suite_stat = functions.get("cli.suite_" + suite.replace("-", "_"), {})
    out["cli.unattributed_s"] = (suite_stat.get("self_s"), "s")
    out["trace.suite_s"] = (record["suite_s"], "s")
    return out
