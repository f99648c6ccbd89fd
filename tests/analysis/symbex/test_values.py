"""The finite-domain constraint store underneath the symbolic layer."""

import pytest

from repro.analysis.symbex.values import (
    ConstraintStore,
    SymVar,
    Unsatisfiable,
    negate,
    render_constraint,
)


def _store_with(name="x", domain=range(10)):
    store = ConstraintStore()
    var = SymVar(name, domain)
    store.register(var)
    return store, var


class TestConstraintStore:
    def test_fresh_var_has_full_domain(self):
        store, var = _store_with(domain=range(5))
        assert set(store.feasible_values(var)) == {0, 1, 2, 3, 4}

    def test_const_constraints_narrow_domains(self):
        store, var = _store_with()
        store.assert_true(("c", "ge", var, 3))
        store.assert_true(("c", "lt", var, 6))
        assert set(store.feasible_values(var)) == {3, 4, 5}

    def test_contradiction_raises(self):
        store, var = _store_with()
        store.assert_true(("c", "lt", var, 3))
        with pytest.raises(Unsatisfiable):
            store.assert_true(("c", "ge", var, 7))

    def test_entailed_vs_feasible(self):
        store, var = _store_with(domain=range(4))
        store.assert_true(("c", "ge", var, 2))
        assert store.feasible(("c", "eq", var, 3))
        # eq 3 is not entailed (its negation is feasible); ge 1 is.
        assert store.feasible(("c", "ne", var, 3))
        assert not store.feasible(("c", "lt", var, 1))

    def test_var_var_arc_consistency(self):
        store = ConstraintStore()
        a, b = SymVar("a", range(4)), SymVar("b", range(4))
        store.register(a)
        store.register(b)
        store.assert_true(("v", "lt", a, b))
        store.assert_true(("c", "ge", a, 2))
        # a in {2,3} and a < b forces b == 3 (and then a == 2).
        assert store.feasible_values(b) == (3,)
        assert store.feasible_values(a) == (2,)

    def test_value_of_pinned_var(self):
        store, var = _store_with(domain=range(8))
        assert store.value_of(var) is None
        store.assert_true(("c", "eq", var, 5))
        assert store.value_of(var) == 5

    def test_model_satisfies_all_constraints(self):
        store = ConstraintStore()
        a, b = SymVar("a", range(5)), SymVar("b", range(5))
        store.register(a)
        store.register(b)
        store.assert_true(("v", "ne", a, b))
        store.assert_true(("c", "ge", a, 3))
        model = store.model()
        assert model[a] >= 3 and model[a] != model[b]

    def test_membership_constraints(self):
        store, var = _store_with()
        store.assert_true(("in", var, frozenset({1, 4, 7})))
        store.assert_true(("notin", var, frozenset({4})))
        assert set(store.feasible_values(var)) == {1, 7}

    def test_copy_is_independent(self):
        store, var = _store_with()
        clone = store.copy()
        clone.assert_true(("c", "eq", var, 2))
        assert clone.feasible_values(var) == (2,)
        assert len(store.feasible_values(var)) == 10

    def test_negate_roundtrip(self):
        store, var = _store_with()
        constraint = ("c", "lt", var, 5)
        assert store.feasible(constraint)
        assert store.feasible(negate(constraint))
        store.assert_true(negate(constraint))
        assert set(store.feasible_values(var)) == {5, 6, 7, 8, 9}

    def test_render_is_readable(self):
        store, var = _store_with(name="pageno", domain=range(4))
        text = render_constraint(("c", "eq", var, 2))
        assert "pageno" in text and "2" in text
