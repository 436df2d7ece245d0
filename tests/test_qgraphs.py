"""Graph encodings over paired flags and the graph-sum route to the
perturbative coefficients."""

from fractions import Fraction

import pytest

from qfj import fseries, qgraphs
from qfj.errors import DomainError, ResourceLimitError, ValidationError
from qfj.fseries import fj_coefficient, fj_term
from qfj.pairings import OrderedPairing
from qfj.qcore import QParam, QPolynomial, q_bracket
from qfj.qgraphs import (
    GraphEncoding,
    a_q,
    enumerate_graphs,
    graph_block_value,
    graph_sum_coefficient,
    omega_q,
)

Q_HALF = QParam(Fraction(1, 2))


class TestGraphEncoding:
    def test_flag_count(self):
        g = enumerate_graphs(1, 2, 0)[0]
        assert g.flags == 8  # 2c + 3d'

    @pytest.mark.parametrize("kwargs", [
        dict(c=-1, dprime=0, k=0, sigma=(), pairing=()),
        dict(c=0, dprime=1, k=0, sigma=(), pairing=()),      # odd d' unpairable
        dict(c=1, dprime=0, k=2, sigma=(1, 2), pairing=((1, 2),)),
        dict(c=1, dprime=0, k=1, sigma=(), pairing=((1, 2),)),
        dict(c=1, dprime=0, k=1, sigma=(5,), pairing=((1, 2),)),
        dict(c=1, dprime=0, k=0, sigma=(), pairing=((1, 2), (3, 4))),
        dict(c=2.0, dprime=0, k=0, sigma=(), pairing=((1, 2), (3, 4))),   # was accepted
        dict(c=True, dprime=0, k=0, sigma=(), pairing=((1, 2),)),          # was accepted
    ])
    def test_inconsistent_encodings_rejected(self, kwargs):
        pairing = OrderedPairing(kwargs.pop("pairing"))
        with pytest.raises(ValidationError):
            GraphEncoding(flag_pairing=pairing, **kwargs)


class TestEnumeration:
    @pytest.mark.parametrize("c, dprime, k, count", [
        (1, 0, 0, 1),
        (0, 2, 0, 15),    # six flags, 5!! pairings
        (2, 0, 1, 3),     # choice of marked vertex x pairings on four flags
        (1, 2, 1, 315),   # C(3,1) marks x 7!! pairings
    ])
    def test_counts(self, c, dprime, k, count):
        assert len(enumerate_graphs(c, dprime, k)) == count

    def test_no_flags_yields_single_empty_graph(self):
        graphs = enumerate_graphs(0, 0, 0)
        assert len(graphs) == 1
        assert graphs[0].flag_pairing == OrderedPairing(())

    def test_odd_dprime_rejected(self):
        with pytest.raises(DomainError):
            enumerate_graphs(0, 3, 0)

    def test_enumeration_limit(self):
        with pytest.raises(ResourceLimitError):
            enumerate_graphs(9, 0, 0)


class TestGraphWeights:
    def test_unmarked_two_flag_graph(self):
        g = enumerate_graphs(1, 0, 0)[0]
        assert omega_q(g) == QPolynomial.monomial(2)
        assert a_q(g) == q_bracket(2)

    def test_mark_flips_sign(self):
        g = enumerate_graphs(1, 0, 1)[0]
        assert omega_q(g) == QPolynomial.monomial(2, Fraction(-1))
        assert a_q(g) == q_bracket(2)

    def test_cubic_vertices_contribute_through_pairing_weight(self):
        flat = OrderedPairing(((1, 2), (3, 4), (5, 6)))
        g = GraphEncoding(0, 2, 0, (), flat)
        # exponent 2c + (d'+k)(d'+k-1) = 2 plus zero crossing weight
        assert omega_q(g) == QPolynomial.monomial(2)


class TestBlockValues:
    def test_two_flag_row_cancels(self):
        plus = graph_block_value(1, 0, 0, Q_HALF)
        minus = graph_block_value(1, 0, 1, Q_HALF)
        assert plus + minus == 0

    def test_reference_block(self):
        got = graph_block_value(2, 2, 1, Q_HALF)
        assert got == Fraction(-287401, 185794560)

    @pytest.mark.parametrize("c, k, dprime", [
        (c, k, dprime)
        for dprime in (0, 2)
        for c in range(0, 4)
        for k in range(0, c + 1)
    ])
    def test_matches_series_term(self, c, k, dprime):
        # same block through the combinatorial route and the analytic route
        for q in (QParam(Fraction(1, 4)), Q_HALF):
            assert graph_block_value(c, dprime, k, q) == fj_term(
                c, k, dprime // 2, q), (c, k, dprime)

    @pytest.mark.parametrize("c, dprime", [
        (c, dprime) for dprime in (0, 2) for c in range(6) if 2 * c + 3 * dprime <= 10
    ])
    def test_equals_per_graph_definition(self, c, dprime):
        # the paper's object-level sum of omega_q / a_q over every graph of
        # the block; a_q reads only (c, dprime, k), so it is taken once
        qv = Q_HALF.value
        for k in range(c + 1):
            graphs = enumerate_graphs(c, dprime, k)
            amplitude = a_q(graphs[0])
            assert a_q(graphs[-1]) == amplitude
            total = Fraction(0)
            for graph in graphs:
                exponent, coefficient = omega_q(graph).as_monomial()
                total += coefficient * qv ** exponent
            assert total / amplitude.eval(qv) == graph_block_value(
                c, dprime, k, Q_HALF), (c, dprime, k)

    def test_block_beyond_pairing_limit_raises(self):
        with pytest.raises(ResourceLimitError):
            graph_block_value(5, 4, 0, Q_HALF)


class TestAggregates:
    def test_order_zero_normalizes(self):
        assert graph_sum_coefficient(0, Q_HALF, 3).rational_part == 1

    @pytest.mark.parametrize("m, max_c", [(0, 4), (2, 3)])
    def test_equals_series_coefficient(self, m, max_c):
        assert graph_sum_coefficient(m, Q_HALF, max_c) == fj_coefficient(
            m, Q_HALF, max_c)

    def test_odd_order_has_no_graphs(self):
        with pytest.raises(DomainError):
            graph_sum_coefficient(3, Q_HALF)

    def test_graph_route_imports_nothing_from_the_series_route(self):
        # the two routes share no code, argument checks included
        assert [name for name, value in vars(qgraphs).items()
                if value is fseries or getattr(value, "__module__", None) == fseries.__name__] == []
        with pytest.raises(DomainError, match="m must be non-negative and an integer, got 2.5"):
            graph_sum_coefficient(2.5, Q_HALF)
