"""A torus lists the rows of its basic slice without walking the degree.

``TorusModel.slice_rows(d)`` enumerates the balanced ``z^a zbar^b w^c`` plane
by plane and reads the last plane's imbalance off the weights.  These tests
check it, row for row, against ``util.walked_torus_rows``, which walks every
monomial of the degree with its own ``W^T k = 0`` check, and check that no
torus slice lists the degree's monomials.
"""

import pytest

from leafavg import FiniteGroupModel, TorusModel, basic_ring, basic_subspace, group_closure, models

from util import walked_torus_rows

# (weight matrix, n_fix): one to three planes, rank one to three, zero rows
# and columns, negative and repeated weights, up to R^7
GRID = [
    ([[1]], 0), ([[1]], 2), ([[0]], 1), ([[3]], 1),
    ([[1], [1]], 0), ([[1], [-1]], 1), ([[1], [2]], 0), ([[2], [3]], 1),
    ([[1], [0]], 1), ([[0], [1]], 0), ([[0], [0]], 1), ([[2], [-4]], 0),
    ([[1, 0], [0, 1]], 0), ([[1, 1], [1, -1]], 1), ([[1, -2], [-3, 1]], 1), ([[0, 0], [1, 2]], 1),
    ([[1, 2], [2, 4]], 0), ([[1, 0], [0, 0]], 2), ([[2, -1], [1, 1]], 0), ([[1, 3, -1], [2, 0, 1]], 0),
    ([[1], [1], [1]], 0), ([[1], [1], [-2]], 1), ([[1], [2], [3]], 0), ([[0], [1], [1]], 1),
    ([[1], [-1], [0]], 0), ([[2], [2], [2]], 0), ([[1, 0], [0, 1], [1, 1]], 0),
    ([[1, 0], [0, 1], [0, 0]], 1), ([[1, 1], [1, 0], [0, 1]], 0), ([[0, 0], [0, 0], [1, 1]], 0),
    ([[1, -1], [2, -2], [1, 1]], 0), ([[3, 1], [-1, 2], [0, 0]], 1), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
]


def _rows(model, degree):
    rows = model.slice_rows(degree)
    assert all(all(row.values()) for row in rows), "a row keeps a zero coefficient"
    return [tuple(sorted(row.items())) for row in rows]


@pytest.mark.parametrize("weights, n_fix", GRID, ids=[f"{w}+{n}" for w, n in GRID])
def test_slice_rows_match_the_walk(weights, n_fix):
    model = TorusModel(weights, n_fix)
    for d in range(1, 9):
        rows = _rows(model, d)
        assert len(rows) == len(set(rows)) and set(rows) == walked_torus_rows(model, d), d


def test_found_torus_at_degree_15():
    # the torus whose first average of x1^3 x2^3 x3^3 x4^3 x5^3 walked 3,876
    # monomials for 36 rows
    model = TorusModel([[1, -2], [-3, 1]], n_fix=1)
    rows = _rows(model, 15)
    assert len(rows) == 36 and set(rows) == walked_torus_rows(model, 15)


def test_no_torus_slice_lists_the_degree(monkeypatch):
    calls = []

    def counted(ambient_dim, degree):
        calls.append((ambient_dim, degree))
        return listed(ambient_dim, degree)

    listed = models.monomial_basis
    for module in (models, basic_ring):
        monkeypatch.setattr(module, "monomial_basis", counted)
    for weights, n_fix in GRID[:12] + [([[1, -2], [-3, 1]], 1)]:
        model = TorusModel(weights, n_fix)
        for d in range(1, 9):
            basic_subspace(model, d)
            assert (model.ambient_dim, d) not in calls, (weights, n_fix, d)
    # the counter sees the walk of a group's slice
    group = group_closure([[[0, 1], [1, 0]]])
    assert isinstance(group, FiniteGroupModel)
    basic_subspace(group, 3)
    assert (2, 3) in calls
