"""Every public entry point refuses hostile input with a SchlichtLabError.

CALLS lists one call with valid arguments for each public function in
``schlichtlab.__all__``, each constructor of an input type and each public
method of the exported classes.  The sweep replaces one argument at a time
by every value of HOSTILE, and the property by a value drawn from a wider
strategy; either way the call must return a result or raise a
:class:`SchlichtLabError`, with every warning an error.

MODULE_CALLS does the same for the module functions outside ``__all__``
that the acceptance suite, the README or the benchmark reach.

Hostile values: NaN, +-inf, +-1e308, 1e30, 10^30 and +-10^400, True, None,
1+1j, strings, empty and wrong-shaped lists and arrays, arrays of the wrong
dtype, and an object of every other public type.

One definition of a number holds at every boundary (``series.is_number``):
PARAMETERS lists each real scalar, complex scalar and coefficient-array
parameter, and a property checks that a bool, a numeric string, a
timedelta64, a numpy complex scalar for a real parameter, and a string,
bool or object array for an array parameter, raise InvalidParameter and are
never taken as numbers.

Scope.  A wrong kind of object is in scope wherever a caller passes it
(README, numerical-policy paragraph).  The objects only the library's own
builders make (``SchlichtFunction`` by ``make_schlicht``, ``rotated`` and
``dilated``; ``GrunskyTable`` by ``grunsky_matrix``, ``grunsky_matrix_direct``
and ``GrunskyTable.section``) refuse a direct call and a
``dataclasses.replace`` with ``InvalidParameter``, whatever the arguments.
The result records (``HaymanEstimate``, ``LogData``,
``TauberHarnessReport``, ``ScenarioReport``) are out of scope: their
constructors store what they are given, unchecked, so
``HaymanEstimate(None, None, None).bracket_width`` raises ``TypeError``.
Every method is in scope, called on objects the library built.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schlichtlab
from schlichtlab import (ComplexSeries, DoubleFamily, GrunskyTable, ScenarioConfig,
                         SchlichtFunction, SigmaFunction, bazilevich_equality_residual,
                         bazilevich_gap, cesaro_mean, coefficient_functionals, compose,
                         default_schedule, deriv_certified, dilated, euler_bracket, eval_certified,
                         export_report, full_mapping_defect, fullness_defect, growth_direction,
                         growth_profile, grunsky_matrix, grunsky_matrix_direct, hayman_index,
                         invert_to_sigma, lebedev_milin_check, log_data, make_schlicht, max_modulus,
                         milin_check, prawitz_check, rotated, run_scenario,
                         simultaneous_tauber_harness, standard_corpus, strong_grunsky_norm,
                         tauber_decomposition_check, weighted_mean)
from schlichtlab import families, grunsky, lab, logmilin, tauber
from schlichtlab.errors import InvalidParameter, SchlichtLabError

F = make_schlicht("koebe_transform", {"w": 0.3 + 0.2j}, order=18)
SERIES = F.series
SIGMA = invert_to_sigma(F, 8)
LEDGER = log_data(F)
TABLE = grunsky_matrix(SIGMA, 4)
FAMILY = DoubleFamily(np.array([1, 2]), np.ones((2, 8)), np.array([1.0, 1.0]))
CONFIG_DATA = {"scenario": "theorem2", "m_range": [1, 2], "n_range": [1, 8], "series_order": 16,
               "tolerances": {"simultaneous_tail_n": 4}}
CONFIG = ScenarioConfig.from_dict(CONFIG_DATA)
REPORT = run_scenario(CONFIG)
ESTIMATE = hayman_index(F)
HARNESS = simultaneous_tauber_harness(FAMILY)

# name -> (callable, valid arguments); a method is bound to a library-built object
CALLS = {
    "ComplexSeries": (ComplexSeries, ([0.0, 1.0, 2.0],)),
    "ComplexSeries.one": (ComplexSeries.one, (4,)),
    "ComplexSeries.__add__": (SERIES.__add__, (SERIES,)),
    "ComplexSeries.__radd__": (SERIES.__radd__, (1.0,)),
    "ComplexSeries.__sub__": (SERIES.__sub__, (SERIES,)),
    "ComplexSeries.__rsub__": (SERIES.__rsub__, (1.0,)),
    "ComplexSeries.__mul__": (SERIES.__mul__, (SERIES,)),
    "ComplexSeries.__rmul__": (SERIES.__rmul__, (2.0,)),
    "ComplexSeries.__truediv__": (SERIES.__truediv__, (2.0,)),
    "ComplexSeries.__rtruediv__": ((1.0 + SERIES).__rtruediv__, (1.0,)),
    "ComplexSeries.__call__": (SERIES, (0.5,)),
    "compose": (compose, (SERIES, SERIES)),
    "SchlichtFunction.value": (F.value, (0.5,)),
    "SchlichtFunction.deriv": (F.deriv, (0.5,)),
    "SigmaFunction": (SigmaFunction, (0.5, np.zeros(2), 2)),
    "make_schlicht": (make_schlicht, ("koebe_transform", {"w": 0.3}, 16)),
    "rotated": (rotated, (F, 0.5)),
    "dilated": (dilated, (F, 0.5)),
    "invert_to_sigma": (invert_to_sigma, (F, 4)),
    "eval_certified": (eval_certified, (F, 0.5)),
    "deriv_certified": (deriv_certified, (F, 0.5)),
    "max_modulus": (max_modulus, (F, [0.5, 0.9])),
    "standard_corpus": (standard_corpus, (16,)),
    "growth_profile": (growth_profile, (F, [0.5, 0.9])),
    "hayman_index": (hayman_index, (F,)),
    "growth_direction": (growth_direction, (F, 0.95)),
    "default_schedule": (default_schedule, (F,)),
    "log_data": (log_data, (F,)),
    "milin_check": (milin_check, (LEDGER,)),
    "bazilevich_gap": (bazilevich_gap, (LEDGER, 0.5, 0.3, 4)),
    "lebedev_milin_check": (lebedev_milin_check, (F, LEDGER, 4)),
    "prawitz_check": (prawitz_check, (F, [0.3, 0.5])),
    "coefficient_functionals": (coefficient_functionals, (F, 3)),
    "GrunskyTable.section": (TABLE.section, (2,)),
    "grunsky_matrix": (grunsky_matrix, (SIGMA, 4)),
    "grunsky_matrix_direct": (grunsky_matrix_direct, (SIGMA, 4)),
    "strong_grunsky_norm": (strong_grunsky_norm, (TABLE,)),
    "fullness_defect": (fullness_defect, (TABLE, 0.3)),
    "full_mapping_defect": (full_mapping_defect, (TABLE, LEDGER, F, 0.3)),
    "bazilevich_equality_residual": (bazilevich_equality_residual, (LEDGER, 0.5, 0.3, 4)),
    "DoubleFamily": (DoubleFamily, (np.array([1, 2]), np.ones((2, 8)), np.array([1.0, 1.0]))),
    "cesaro_mean": (cesaro_mean, (np.ones(8), 4)),
    "weighted_mean": (weighted_mean, (np.ones(8), 4)),
    "simultaneous_tauber_harness": (simultaneous_tauber_harness, (FAMILY,)),
    "tauber_decomposition_check": (tauber_decomposition_check, (LEDGER, 4, 0.5)),
    "euler_bracket": (euler_bracket, (4,)),
    "ScenarioConfig": (ScenarioConfig, ("theorem2", (1, 2), (1, 8), 16, 32,
                                        {"simultaneous_tail_n": 4}, "out")),
    "ScenarioConfig.from_dict": (ScenarioConfig.from_dict, (CONFIG_DATA,)),
    "ScenarioConfig.from_json": (ScenarioConfig.from_json, ("config.json",)),
    "run_scenario": (run_scenario, (CONFIG,)),
    "export_report": (export_report, (REPORT, "csv", "out")),
}

# the module functions outside __all__ that the acceptance suite, README or bench call
AUDIT_CONFIG = ScenarioConfig("inequality_audit", series_order=32)
AUDIT_MEMBER = make_schlicht("koebe_transform", {"w": 0.3 + 0.2j}, order=32)
MODULE_CALLS = {
    "logmilin.gamma_via_derivative_recurrence": (logmilin.gamma_via_derivative_recurrence,
                                                 (F, 4)),
    "logmilin.gamma_recurrence_unweighted": (logmilin.gamma_recurrence_unweighted,
                                             (F, LEDGER, 3)),
    "logmilin.f_coeffs_via_exp_recurrence": (logmilin.f_coeffs_via_exp_recurrence, (LEDGER,)),
    "logmilin.f_coeffs_recurrence_unweighted": (logmilin.f_coeffs_recurrence_unweighted,
                                                (LEDGER,)),
    "logmilin.boundary_mean_coeffs": (logmilin.boundary_mean_coeffs, (F,)),
    "logmilin.direction_weighted_sum": (logmilin.direction_weighted_sum,
                                        (LEDGER.gamma, 0.3, 4)),
    "grunsky.row_polynomials": (grunsky.row_polynomials, (TABLE, 0.3)),
    "grunsky.grunsky_norm_dense": (grunsky.grunsky_norm_dense, (TABLE,)),
    "tauber.tail_supremum": (tauber.tail_supremum, (np.ones((2, 3)), np.array([1, 2]))),
    "tauber.tail_cutoffs": (tauber.tail_cutoffs, (2, 3)),
    "families.batch": (families.batch, ([F, F],)),
    "lab.audit_members": (lab.audit_members, ([AUDIT_MEMBER], AUDIT_CONFIG)),
}
ALL_CALLS = {**CALLS, **MODULE_CALLS}

# the methods with no argument but their object, called on library-built objects
NO_ARGUMENTS = {
    "ComplexSeries.__neg__": lambda: -SERIES,
    "ComplexSeries.log": lambda: (1.0 + SERIES).log(),
    "ComplexSeries.exp": SERIES.exp,
    "ComplexSeries.sqrt": lambda: (1.0 + SERIES).sqrt(),
    "ComplexSeries.deriv": SERIES.deriv,
    "ComplexSeries.order": lambda: SERIES.order,
    "SchlichtFunction.label": F.label,
    "SchlichtFunction.has_closed_form": lambda: F.has_closed_form,
    "SchlichtFunction.maximal_growth": lambda: F.maximal_growth,
    "SchlichtFunction.order": lambda: F.order,
    "HaymanEstimate.bracket_width": lambda: ESTIMATE.bracket_width,
    "LogData.top_index": lambda: LEDGER.top_index,
    "GrunskyTable.weighted": TABLE.weighted,
    "ScenarioReport.all_ok": REPORT.all_ok,
}

OTHER_TYPES = [SERIES, F, SIGMA, LEDGER, TABLE, FAMILY, CONFIG, REPORT, ESTIMATE, HARNESS]
HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e30, 10**30, 10**400, -10**400,
           True, None, 1 + 1j, complex(math.nan, 0.0), "x", "", [], [[0, 1], [2]],
           np.array([]), np.zeros((2, 2)), np.array(["a", "b"]), np.array([True, False]),
           np.array([math.nan, 0.5]), np.array([1 + 1j, 0.5]), *OTHER_TYPES]


def _call(name, position, value):
    """``ALL_CALLS[name]`` with argument ``position`` replaced by ``value``:
    a result or a SchlichtLabError, with every warning an error."""
    fn, args = ALL_CALLS[name]
    args = list(args)
    args[position] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except SchlichtLabError:
            pass


@pytest.fixture(autouse=True)
def in_scratch_dir(tmp_path, monkeypatch):
    # export_report writes under out_dir, and from_json reads config.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG_DATA), encoding="utf-8")


def test_every_public_name_is_called():
    called = {name.split(".")[0] for name in (*CALLS, *NO_ARGUMENTS)}
    unchecked_constructors = {"HaymanEstimate", "LogData", "ScenarioReport",
                              "TauberHarnessReport"}
    assert set(schlichtlab.__all__) - {"errors"} <= called | unchecked_constructors


@pytest.mark.parametrize("name", sorted(NO_ARGUMENTS))
def test_methods_on_library_built_objects(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        NO_ARGUMENTS[name]()


@pytest.mark.parametrize("name", sorted(ALL_CALLS))
def test_valid_calls_succeed(name):
    fn, args = ALL_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(*args)


@pytest.mark.parametrize("name, position", [(name, i) for name in sorted(ALL_CALLS)
                                            for i in range(len(ALL_CALLS[name][1]))])
def test_hostile_argument_sweep(name, position):
    for value in HOSTILE:
        try:
            _call(name, position, value)
        except Exception as exc:
            raise AssertionError(f"{name} argument {position} = {value!r:.60}: "
                                 f"{type(exc).__name__}: {exc}") from None


hostile_values = st.one_of(
    st.floats(), st.integers(), st.complex_numbers(), st.text(max_size=4), st.booleans(),
    st.none(), st.sampled_from(HOSTILE),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.integers(-10**3, 10**3), max_size=4).map(np.array),
    st.lists(st.complex_numbers(), max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ALL_CALLS)), st.data())
def test_hostile_argument_property(name, data):
    position = data.draw(st.integers(0, len(ALL_CALLS[name][1]) - 1))
    _call(name, position, data.draw(hostile_values))


# -- only the builders make a member or a Grunsky table ---------------------------

# each gated type, with an object of it that a builder made
BUILT = {"SchlichtFunction": F, "GrunskyTable": TABLE}


@pytest.mark.parametrize("name", sorted(BUILT))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_direct_construction_raises(name, data):
    # any arguments, the built object's own fields among them, and any replaced fields
    built = BUILT[name]
    fields = [field.name for field in dataclasses.fields(built)]
    values = {field: data.draw(st.one_of(st.just(getattr(built, field)), hostile_values))
              for field in fields}
    changes = {field: value for field, value in values.items() if data.draw(st.booleans())}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter):
            type(built)(**values)
        with pytest.raises(InvalidParameter):
            dataclasses.replace(built, **changes)


def test_a_hand_built_pair_is_refused():
    # this Koebe series with the pair (2, 0) read value(0.25) = 1.0 against the
    # series' 0.444, and hayman_index certified 3.4e-13 and 3.7e-9 for index 1
    k = make_schlicht("koebe", order=16)
    with pytest.raises(InvalidParameter):
        SchlichtFunction(k.series, "koebe", {}, (2.0, 0.0))
    with pytest.raises(InvalidParameter):
        dataclasses.replace(k, beta_rho=(2.0, 0.0))


def test_a_hand_built_grunsky_table_is_refused():
    # this table read a strong Grunsky norm of 0.0
    with pytest.raises(InvalidParameter):
        GrunskyTable(3, np.zeros((2, 2)))


# -- one definition of a number ------------------------------------------------


def _at(name, position):
    """``ALL_CALLS[name]`` as a function of its argument ``position`` alone."""
    fn, args = ALL_CALLS[name]
    return lambda value: fn(*args[:position], value, *args[position + 1:])


REAL, COMPLEX, ARRAY = "real", "complex", "array"
# each real scalar, complex scalar and coefficient-array parameter: (its kind,
# the call as a function of it, a valid value, so an array's shape is known)
PARAMETERS = {
    **{f"{name}[{i}]": (REAL, _at(name, i), ALL_CALLS[name][1][i]) for name, i in [
        ("rotated", 1), ("dilated", 1), ("growth_direction", 1), ("bazilevich_gap", 1),
        ("bazilevich_gap", 2), ("bazilevich_equality_residual", 1),
        ("bazilevich_equality_residual", 2), ("tauber_decomposition_check", 2),
        ("logmilin.direction_weighted_sum", 1)]},
    **{f"{name}[{i}]": (COMPLEX, _at(name, i), ALL_CALLS[name][1][i]) for name, i in [
        ("ComplexSeries.__add__", 0), ("ComplexSeries.__radd__", 0),
        ("ComplexSeries.__sub__", 0), ("ComplexSeries.__rsub__", 0),
        ("ComplexSeries.__mul__", 0), ("ComplexSeries.__rmul__", 0),
        ("ComplexSeries.__truediv__", 0), ("ComplexSeries.__rtruediv__", 0),
        ("ComplexSeries.__call__", 0), ("SchlichtFunction.value", 0),
        ("SchlichtFunction.deriv", 0), ("SigmaFunction", 0), ("eval_certified", 1),
        ("deriv_certified", 1), ("fullness_defect", 1), ("full_mapping_defect", 3),
        ("grunsky.row_polynomials", 1)]},
    **{f"{name}[{i}]": (ARRAY, _at(name, i), ALL_CALLS[name][1][i]) for name, i in [
        ("ComplexSeries", 0), ("SigmaFunction", 1), ("DoubleFamily", 0), ("DoubleFamily", 1),
        ("DoubleFamily", 2), ("cesaro_mean", 0), ("weighted_mean", 0), ("max_modulus", 1),
        ("growth_profile", 1), ("prawitz_check", 1), ("logmilin.direction_weighted_sum", 0),
        ("tauber.tail_supremum", 0), ("tauber.tail_supremum", 1)]},
    "make_schlicht rotation theta": (
        REAL, lambda v: make_schlicht("rotation", {"theta": v}, 16), 0.5),
    "make_schlicht dilation r": (REAL, lambda v: make_schlicht("dilation", {"r": v}, 16), 0.5),
    "make_schlicht koebe_transform w": (
        COMPLEX, lambda v: make_schlicht("koebe_transform", {"w": v}, 16), 0.3),
    "make_schlicht custom coeffs": (
        ARRAY, lambda v: make_schlicht("custom", {"coeffs": v}, 2), np.array([0.0, 1.0, 0.0])),
}

numeric_strings = st.one_of(st.sampled_from(["0.5", "1", "1e-1", "0.3+0.1j"]),
                            st.floats().map(str), st.integers().map(str))
not_numbers = {
    COMPLEX: st.one_of(st.booleans(), numeric_strings, st.integers(-5, 5).map(np.timedelta64)),
    REAL: st.one_of(st.booleans(), numeric_strings, st.integers(-5, 5).map(np.timedelta64),
                    st.complex_numbers(max_magnitude=2.0).flatmap(
                        lambda c: st.sampled_from([np.complex128(c), np.complex64(c)]))),
}
array_entries = st.one_of(st.booleans(), numeric_strings, st.sampled_from([0.5, None, 1]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PARAMETERS)), st.data())
def test_one_definition_of_a_number(name, data):
    kind, call, valid = PARAMETERS[name]
    if kind == ARRAY:
        entry = data.draw(array_entries)
        # a bool or str array, or an object array even of numbers
        dtype = {bool: bool, str: str}.get(type(entry), object)
        value = np.full(np.shape(valid), entry, dtype=dtype)
    else:
        value = data.draw(not_numbers[kind])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter):
            call(value)


@pytest.mark.parametrize("name, position", [
    (name, i) for name in sorted(ALL_CALLS) for i, arg in enumerate(ALL_CALLS[name][1])
    if type(arg) in (int, float, complex)])
def test_numpy_scalars_still_accepted(name, position):
    # np.int64, np.float64 and np.complex128 pass wherever int, float and complex do
    value = ALL_CALLS[name][1][position]
    numpy_value = {int: np.int64, float: np.float64, complex: np.complex128}[type(value)](value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _at(name, position)(numpy_value)
