"""Fan geometry: functionals, cones, polar vertices, isometries."""

from fractions import Fraction as Q

import mpmath
import pytest

from palinlace import foic
from palinlace.errors import TooLarge
from palinlace.interlace import interlace_number
from palinlace.polycore import as_mpf, make_polynomial, sigma_of, unity_values_raw
from palinlace.precision import working_precision
from palinlace.families import random_trim_palindromic

from conftest import ge


class TestFunctionals:
    def test_n6_rows(self):
        rows = [foic.functional(6, j).coefficients for j in range(4)]
        assert rows == [
            (Q(-1), Q(-1), Q(-1)),
            (Q(-1, 2), Q(1, 2), Q(1)),
            (Q(1, 2), Q(1, 2), Q(-1)),
            (Q(1), Q(-1), Q(1)),
        ]

    def test_apply_geometric(self):
        val = foic.apply(foic.functional(6, 1), sigma_of(ge(6)))
        assert val == Q(1, 2)

    def test_apply_j0_is_negative_sum(self, rng):
        for _ in range(5):
            p = random_trim_palindromic(rng, rng.randint(3, 9))
            s = sigma_of(p)
            assert foic.apply(foic.functional(p.darga, 0), s) == -sum(s.sigma[1:])

    def test_matches_unity_values(self, rng):
        for n in range(3, 25):
            p = random_trim_palindromic(rng, n)
            s = sigma_of(p)
            vals = unity_values_raw(p, range(n // 2 + 1))
            with working_precision():
                for j in range(n // 2 + 1):
                    lhs = as_mpf(foic.apply(foic.functional(n, j), s)) \
                        if not isinstance(foic.apply(foic.functional(n, j), s),
                                          mpmath.mpf) \
                        else foic.apply(foic.functional(n, j), s)
                    assert abs(lhs + vals[j].real / 2) < mpmath.mpf("1e-25") * \
                        (1 + abs(vals[j].real))

    def test_index_range_checked(self):
        with pytest.raises(IndexError):
            foic.functional(6, 4)


class TestHalfspaces:
    def test_foic6_rows(self):
        assert foic.cone_halfspaces(6, 0) == [(-1, -3, -4), (-1, -1, 0), (-1, 0, -1)]
        assert foic.cone_halfspaces(6, 1) == [(1, 3, 4), (-1, 0, 2), (-1, 1, 0)]
        assert foic.cone_halfspaces(6, 2) == [(1, 1, 0), (1, 0, -2), (-1, 3, -4)]
        assert foic.cone_halfspaces(6, 3) == [(1, 0, 1), (1, -1, 0), (1, -3, 4)]

    def test_darga4(self):
        assert foic.cone_halfspaces(4, 1) == [(1, 2), (-1, 2)]

    def test_darga2_single_row(self):
        assert foic.cone_halfspaces(2, 0) == [(-1,)]


class TestMembership:
    def test_geometric_all_certs(self):
        cm = foic.cone_membership(ge(6))
        assert sorted(cm.cones) == [1, 2, 3]
        assert cm.face_dimension == 1

    def test_fekete_nonresidue_class(self):
        # the interlace maximum of a Fekete polynomial sits at the
        # nonresidue powers (where the character value is -1)
        p = make_polynomial([1, -1, -1, 1], offset=1)
        cm = foic.cone_membership(p)
        assert sorted(cm.cones) == [2]

    def test_nonpositive_in_cone0(self, rng):
        p = random_trim_palindromic(rng, 8)
        coeffs = [-abs(c) - 1 for c in p.re[1:8]]
        q = make_polynomial(coeffs, offset=1)
        assert 0 in foic.cone_membership(q).cones

    def test_shortcut_flags(self):
        mge6 = ge(6).scale(-1)
        flags = foic.membership_shortcuts(mge6)
        assert flags.inc0_applies
        # x + x^5 + small middle: p_1 dominant
        p = make_polynomial([10, 1, 0, 1, 10], offset=1)
        assert foic.membership_shortcuts(p).sumj2_applies
        assert not foic.membership_shortcuts(ge(6)).sumj2_applies

    def test_shortcut_soundness(self, rng):
        for _ in range(15):
            p = random_trim_palindromic(rng, rng.randint(3, 10))
            flags = foic.membership_shortcuts(p)
            cones = foic.cone_membership(p).cones
            n = p.darga
            if flags.inc0_applies:
                assert 0 in cones
            if flags.inc_half_applies:
                assert n // 2 in cones
            if flags.sumj2_applies:
                assert n // 2 in cones


class TestPolarVertices:
    def test_j0_is_doubled_geometric(self):
        v = foic.polar_vertices(6)[0]
        assert v == ge(6).scale(2)

    def test_n4_j1(self):
        v = foic.polar_vertices(4)[1]
        assert [Q(c) for c in v.re] == [0, 0, -2]  # -2 x^2, darga 4
        assert v.darga == 4
        assert list(sigma_of(v).sigma) == [0, 0, -1]

    def test_apply_identity(self):
        for n in range(2, 13):
            verts = foic.polar_vertices(n)
            for j, v in enumerate(verts):
                s = sigma_of(v)
                for r in range(n // 2 + 1):
                    if r == j:
                        continue
                    val = foic.apply(foic.functional(n, r), s)
                    with working_precision():
                        assert abs(as_mpf(val) - 1) < mpmath.mpf("1e-25")

    def test_polar_is_minus_two_functional_odd_n(self):
        for n in (5, 7, 9):
            verts = foic.polar_vertices(n)
            for j, v in enumerate(verts):
                s = sigma_of(v).sigma[1:]
                f = foic.functional(n, j).coefficients
                with working_precision():
                    for a, b in zip(s, f):
                        assert abs(as_mpf(a) + 2 * as_mpf(b)) < mpmath.mpf("1e-25")

    def test_polar_even_n_middle_halves(self):
        # even darga: the middle sigma coordinate is half of -2 I_j there
        for n in (6, 8):
            verts = foic.polar_vertices(n)
            for j, v in enumerate(verts):
                s = sigma_of(v).sigma[1:]
                f = foic.functional(n, j).coefficients
                with working_precision():
                    for k, (a, b) in enumerate(zip(s, f), start=1):
                        factor = 1 if 2 * k == n else 2
                        assert abs(as_mpf(a) + factor * as_mpf(b)) \
                            < mpmath.mpf("1e-25")


class TestSimplexRelation:
    def test_exact_and_float(self):
        for n in range(3, 25):
            rows = [foic.functional(n, j).coefficients for j in range(n // 2 + 1)]
            m = (n - 1) // 2
            with working_precision():
                for k in range(n // 2):
                    total = as_mpf(rows[0][k])
                    for j in range(1, m + 1):
                        total += 2 * as_mpf(rows[j][k])
                    if n % 2 == 0:
                        total += as_mpf(rows[n // 2][k])
                    assert abs(total) < mpmath.mpf("1e-25")


class TestIsometries:
    def test_graph_colors_odd(self):
        g = foic.isometry_graph(5)
        assert g.vertex_colors == (Q(2), Q(3, 4), Q(3, 4))
        assert g.edge_color(0, 1) == Q(-1, 2)

    def test_graph_colors_even(self):
        g = foic.isometry_graph(8)
        assert g.vertex_colors == (Q(4), Q(2), Q(2), Q(2), Q(4))
        assert g.edge_color(0, 2) == 0 and g.edge_color(0, 1) == -1

    def test_graph_matches_numeric_inner_products(self):
        for n in range(3, 16):
            g = foic.isometry_graph(n)
            rows = [foic.functional(n, j).coefficients for j in range(n // 2 + 1)]
            with working_precision():
                for r in range(len(rows)):
                    dot = sum(as_mpf(c) * as_mpf(c) for c in rows[r])
                    assert abs(dot - as_mpf(g.vertex_colors[r])) < mpmath.mpf("1e-25")
                    for s in range(r + 1, len(rows)):
                        dot = sum(as_mpf(a) * as_mpf(b)
                                  for a, b in zip(rows[r], rows[s]))
                        assert abs(dot - as_mpf(g.edge_color(r, s))) \
                            < mpmath.mpf("1e-25")

    def test_group_orders(self):
        assert foic.isometry_group(5)[0] == 2
        assert foic.isometry_group(8)[0] == 4
        assert foic.isometry_group(6)[0] == 2

    def test_bruteforce_matches_structure(self):
        for n in range(3, 17):
            g = foic.isometry_graph(n)
            assert foic.count_colored_automorphisms(g) == foic.isometry_group(n)[0]

    def test_budget_guard(self):
        with pytest.raises(TooLarge):
            foic.count_colored_automorphisms(foic.isometry_graph(30))
