"""Record contract: every result and parameter record is immutable and keeps its checks.

The value records are named tuples, so they compare, hash and unpack as
tuples; the array holders (grids, grid functions, test functions) and
``tridiag.Constant`` are slotted classes that refuse assignment.
"""

import pickle

import numpy as np
import pytest

from emdenlab import (
    InvalidParameterError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    SchrodingerParams,
    TestFunction,
    assemble_forms,
    classify_p,
    critical_exponents,
    profile_spectrum,
    shoot,
)
from emdenlab.radial_ode import solve_ivp
from emdenlab.tridiag import Constant


def _records():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    grid = RadialGrid.logspaced(1.0, 10.0, 5)
    return {
        "ProblemParams": params,
        "SchrodingerParams": SchrodingerParams(5, 0.0, 2.0, 3.0),
        "CriticalExponents": critical_exponents(11.0, 0.0),
        "Classification": classify_p(params),
        "FormAssembly": assemble_forms(params, 2.0, 1e-2, 1e2, 16),
        "SpectrumReport": profile_spectrum(ProblemParams(11, 0.0, 0.0, 3.0), 1e-2, 1e2, 16),
        "ShootingResult": shoot(params, 1.0, 1e3),
        "OdeSolution": solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], t_eval=np.array([0.0, 1.0]),
                                 rtol=1e-8, atol=1e-8, max_step=1.0),
        "RadialGrid": grid,
        "RadialFunction": RadialFunction(grid, np.ones(5)),
        "TestFunction": TestFunction(grid, [0.0, 1.0, 1.0, 1.0, 0.0]),
        "Constant": Constant(2, 5),
    }


def _fields(record):
    if isinstance(record, tuple):
        return record._fields
    return [name for cls in type(record).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("name", list(_records()))
def test_no_field_of_a_record_can_be_assigned_or_deleted(name):
    record = _records()[name]
    assert type(record).__name__ == name
    fields = _fields(record)
    assert fields, name
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_value_records_are_named_tuples():
    params = ProblemParams(11.0, 0.0, 0.0, 7.0)
    N, theta, l, p = params
    assert (N, theta, l, p) == params == (11, 0.0, 0.0, 7.0)
    assert type(params.N) is int and hash(params) == hash((11, 0.0, 0.0, 7.0))
    assert params._asdict() == {"N": 11, "theta": 0.0, "l": 0.0, "p": 7.0}
    assert repr(ProblemParams(11, 0, 0, 7)) == "ProblemParams(N=11, theta=0, l=0, p=7)"


def test_pickling_and_replacing_rerun_the_checks():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    assert pickle.loads(pickle.dumps(params)) == params
    # a tuple built past the checks is refused when it is loaded again
    forged = pickle.dumps(tuple.__new__(ProblemParams, (1, 0.0, 0.0, 7.0)))
    with pytest.raises(InvalidParameterError, match="N must be an integer >= 2"):
        pickle.loads(forged)
    with pytest.raises(InvalidParameterError, match="p must exceed 1"):
        params._replace(p=1.0)
    with pytest.raises(InvalidParameterError, match="ell must be below"):
        SchrodingerParams(5, 0.0, 2.0, 3.0)._replace(ell=3.0)
    with pytest.raises(InvalidParameterError, match="kappa must be positive"):
        shoot(params, 1.0, 1e3)._replace(kappa=0.0)
    assert params._replace(p=3.0) == ProblemParams(11, 0.0, 0.0, 3.0)


def test_constant_is_its_value_repeated():
    const = Constant(-2, 7)
    assert len(const) == 7 and type(const.value) is float
    assert np.asarray(const).tobytes() == np.full(7, -2.0).tobytes()
    assert np.asarray(const, dtype=np.longdouble).dtype == np.longdouble
