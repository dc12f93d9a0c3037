"""The value classes' contract: repr, equality and hash, immutability,
and pickling with cached set-up."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from wg_hp import DofMap, Mesh, model_problem, parse
from wg_hp.checks import SuiteResult
from wg_hp.problem import MuPair, ProblemSpec
from wg_hp.verify import CaseFailure, ConvergenceRecord


def _record(**changes):
    fields = dict(regime="RCD", eps1=1e-4, eps2=1e-2, p=3, n_elements=3, dof=14,
                  err_rel=0.01, err_abs=0.001, ref_degree=6)
    fields.update(changes)
    return ConvergenceRecord(**fields)


def _spec(eps1=1e-4):
    return ProblemSpec(eps1, 1e-2, parse("1"), parse("2*x"), parse("exp(x)"))


# (value, its repr, an equal value built afresh, an unequal value)
VALUES = [
    (parse("x+1"), "BinOp(op='+', left=Var(), right=Num(value=1.0))",
     parse("x + 1"), parse("x+2")),
    (MuPair(0.5, 1.0), "MuPair(mu0=0.5, mu1=1.0)", MuPair(0.5, 1.0), MuPair(0.5, 2.0)),
    (DofMap(3, 4), "DofMap(n_elements=3, degree=4)", DofMap(3, 4), DofMap(4, 3)),
    (CaseFailure(1e-4, 1e-2, 3, "boom"),
     "CaseFailure(eps1=0.0001, eps2=0.01, p=3, message='boom')",
     CaseFailure(1e-4, 1e-2, 3, "boom"), CaseFailure(1e-4, 1e-2, 4, "boom")),
    (_record(),
     "ConvergenceRecord(regime='RCD', eps1=0.0001, eps2=0.01, p=3, n_elements=3, "
     "dof=14, err_rel=0.01, err_abs=0.001, ref_degree=6)",
     _record(), _record(err_abs=0.002)),
    (_spec(),
     "ProblemSpec(eps1=0.0001, eps2=0.01, b=Num(value=1.0), "
     "r=BinOp(op='*', left=Num(value=2.0), right=Var()), f=Call(func='exp', arg=Var()), "
     "b_prime=Num(value=0.0))",
     _spec(), _spec(eps1=2e-4)),
    (SuiteResult("a", True, 3, 0),
     "SuiteResult(name='a', passed=True, n_checks=3, n_failed=0, detail='')",
     SuiteResult("a", True, 3, 0, ""), SuiteResult("a", False, 3, 1)),
]
IDS = ["Expr", "MuPair", "DofMap", "CaseFailure", "ConvergenceRecord", "ProblemSpec",
       "SuiteResult"]


@pytest.mark.parametrize("value, text, same, other", VALUES, ids=IDS)
def test_repr_equality_and_hash(value, text, same, other):
    assert repr(value) == text
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert value != tuple(vars(value).values())  # only the same class compares equal


def test_the_hash_is_the_hash_of_the_field_values():
    assert hash(MuPair(0.5, 1.0)) == hash((0.5, 1.0))
    assert hash(parse("x")) == hash(())


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_assignment_and_deletion_raise(value):
    name = next(iter(vars(value)))
    with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
        setattr(value, name, 0)
    with pytest.raises(FrozenInstanceError, match="cannot delete field"):
        delattr(value, name)


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_a_pickle_round_trip_stays_equal(value):
    copy = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert copy == value and type(copy) is type(value)


def test_an_expression_keeps_its_compiled_program_through_a_pickle():
    e = parse("exp(x)*sin(x)")
    e._program  # compiled and cached on first use
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and vars(copy)["_program"] == e._program


def test_a_problem_keeps_its_set_up_through_a_pickle():
    spec = model_problem(1e-4, 1e-2)
    gamma_hat = spec.gamma_hat
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert vars(copy)["gamma_hat"] == gamma_hat


def test_a_mesh_reprs_its_nodes_and_rejects_assignment():
    mesh = Mesh([0, 0.25, 1])
    assert repr(mesh) == "Mesh(nodes=array([0.  , 0.25, 1.  ]))"
    with pytest.raises(FrozenInstanceError):
        mesh.nodes = np.array([0.0, 1.0])
    copy = pickle.loads(pickle.dumps(mesh))
    assert np.array_equal(copy.nodes, mesh.nodes) and np.array_equal(copy.widths, mesh.widths)

