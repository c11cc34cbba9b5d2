"""Both forms of the existence criterion and their proven equivalence."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdt import cli, criterion
from hdt.cascade import restricted_root_data, strongly_orthogonal_cascade
from hdt.criterion import (
    HighestWeightInput,
    OriginalFormResult,
    TraceEntry,
    hc_condition,
    hc_condition_original,
    hc_threshold,
    parse_decimal,
    reduction_trace,
)
from hdt.hermitian import catalog, pair_by_label, partition_roots
from hdt.rootsystem import StructuralError
from hdt.weights import (
    compact_fundamental_weights,
    extend_compact_coords,
    lambda_one,
    rho_weight,
    weight_on_coroot,
)


def _zero(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


def test_parse_decimal():
    assert parse_decimal("-2.5") == Fraction(-5, 2)
    assert parse_decimal("3") == 3
    assert parse_decimal(".25") == Fraction(1, 4)
    for bad in ("1e-3", "2E5", "nan", "1/2", ""):
        with pytest.raises(ValueError):
            parse_decimal(bad)


def test_su11_threshold_and_boundary():
    pr = pair_by_label("su11")
    v = hc_condition(HighestWeightInput(pr, _zero(pr), -2))
    assert v.exists and v.threshold == -1
    # the classical weight-k series needs k = -lambda > 1
    v = hc_condition(HighestWeightInput(pr, _zero(pr), Fraction(-1)))
    assert not v.exists  # strict at the boundary
    assert v.witnesses == ((1,),)
    v = hc_condition(HighestWeightInput(pr, _zero(pr), "-1.0001"))
    assert v.exists


def test_sp2_threshold():
    pr = pair_by_label("sp2")
    v = hc_condition(HighestWeightInput(pr, _zero(pr), -3))
    assert v.exists and v.threshold == -2
    v = hc_condition(HighestWeightInput(pr, _zero(pr), "-2.0"))
    assert not v.exists


def test_scalar_threshold_is_one_minus_genus():
    for pr in catalog():
        rd = restricted_root_data(pr)
        assert hc_threshold(pr, _zero(pr)) == 1 - rd.p


def test_original_form_values_su11():
    pr = pair_by_label("su11")
    res = hc_condition_original(HighestWeightInput(pr, _zero(pr), -2))
    assert res.values == (Fraction(-1),)  # (Lambda + rho)(h_1) = -2 + 1
    assert res.exists


def test_lambda_zero_witness_is_top_root():
    # at lambda = 0 the value at the highest root is rho(h_r) = p - 1 > 0
    for label in ("su11", "su23", "sp3", "e7vii"):
        pr = pair_by_label(label)
        res = hc_condition_original(HighestWeightInput(pr, _zero(pr), 0))
        assert not res.exists
        assert strongly_orthogonal_cascade(pr).gammas[-1] in res.witnesses


def test_equivalence_on_grid():
    offsets = (Fraction(-3), Fraction(-1), Fraction(-1, 4), Fraction(0),
               Fraction(1, 4), Fraction(1), Fraction(3))
    for label in ("su11", "su23", "sp2", "sostar10", "e3iii"):
        pr = pair_by_label(label)
        lam0s = [_zero(pr)] + list(compact_fundamental_weights(pr)[:2])
        for lam0 in lam0s:
            thr = hc_threshold(pr, lam0)
            for off in offsets:
                v = hc_condition(HighestWeightInput(pr, lam0, thr + off))
                assert v.exists == v.original_form_exists == (off < 0)


def test_margin_and_flags():
    pr = pair_by_label("sp2")
    v = hc_condition(HighestWeightInput(pr, _zero(pr), Fraction(-7, 2)))
    assert v.margin == pytest.approx(1.5)
    assert not v.lambda_is_integer
    v = hc_condition(HighestWeightInput(pr, _zero(pr), -4))
    assert v.lambda_is_integer


def test_monotone_in_lambda_and_lambda0():
    pr = pair_by_label("su23")
    lam0 = _zero(pr)
    thr0 = hc_threshold(pr, lam0)
    for fw in compact_fundamental_weights(pr):
        assert hc_threshold(pr, fw) <= thr0  # dominant weight lowers the threshold
    exists = [hc_condition(HighestWeightInput(pr, lam0, thr0 + d)).exists
              for d in (-2, -1, 0, 1, 2)]
    assert exists == sorted(exists, reverse=True)  # monotone decreasing in lambda


def test_reduction_trace_examples():
    pr = pair_by_label("sp2")
    entries = reduction_trace(HighestWeightInput(pr, _zero(pr), -3))
    by_gamma = {e.gamma: e for e in entries}
    top = (2, 1)
    assert by_gamma[top].expansion == (0, 0)
    # the short noncompact root a1 + a2 = gamma_r - a1: compact node is a2
    assert by_gamma[(1, 1)].expansion == (1, 0)
    for e in entries:
        assert all(m >= 0 for m in e.expansion)
        assert e.slack >= 0
        assert e.pairing <= e.pairing_top


def test_reduction_trace_whole_catalog():
    for pr in catalog():
        entries = reduction_trace(HighestWeightInput(pr, _zero(pr), -1))
        assert len(entries) == len(partition_roots(pr).noncompact_pos)
        for e in entries:
            assert all(m >= 0 for m in e.expansion)
            assert e.expansion[pr.node] == 0
            assert e.slack >= 0


def test_input_validation():
    pr = pair_by_label("su22")
    with pytest.raises(ValueError):
        HighestWeightInput(pr, extend_compact_coords(pr, [-1, 0]), -5)
    with pytest.raises(ValueError):
        HighestWeightInput(pr, (Fraction(0), Fraction(1), Fraction(0)), -5)


# -- the Fraction implementation these functions replaced, kept as an oracle ----


def _oracle_original(inp):
    """(Lambda + rho)(h_gamma) in Fraction arithmetic, root by root."""
    pair = inp.pair
    rs = pair.root_system
    lam1 = lambda_one(pair)
    base = tuple(a + b for a, b in zip(inp.lambda0, rho_weight(pair)))
    vals = []
    witnesses = []
    for gamma in partition_roots(pair).noncompact_pos:
        v = weight_on_coroot(rs, base, gamma) + inp.lam * weight_on_coroot(rs, lam1, gamma)
        vals.append(v)
        if v >= 0:
            witnesses.append(gamma)
    return OriginalFormResult(not witnesses, tuple(witnesses), tuple(vals))


def _oracle_trace(inp):
    """Every pairing of the reduction trace in Fraction arithmetic, at this lambda."""
    pair = inp.pair
    rs = pair.root_system
    gamma_r = strongly_orthogonal_cascade(pair).gammas[-1]
    lam1 = lambda_one(pair)
    base = tuple(a + b for a, b in zip(inp.lambda0, rho_weight(pair)))

    def full_pairing(v) -> Fraction:
        on_coroot = weight_on_coroot(rs, base, v) + inp.lam * weight_on_coroot(rs, lam1, v)
        return on_coroot * rs.inner2(v, v) / 4

    top = full_pairing(gamma_r)
    entries = []
    for gamma in partition_roots(pair).noncompact_pos:
        m = tuple(a - b for a, b in zip(gamma_r, gamma))
        assert m[pair.node] == 0 and all(c >= 0 for c in m)
        val = full_pairing(gamma)
        assert top - val >= 0
        entries.append(TraceEntry(gamma, m, val, top, top - val))
    return tuple(entries)


SWEEP_OFFSETS = (Fraction(-3), Fraction(-1, 3), Fraction(0), Fraction(5, 4), Fraction(7))


def test_integer_tables_equal_the_fraction_oracle():
    cases = 0
    for pr in catalog():
        for lam0 in [_zero(pr), *compact_fundamental_weights(pr)]:
            thr = hc_threshold(pr, lam0)
            for off in SWEEP_OFFSETS:
                inp = HighestWeightInput(pr, lam0, thr + off)
                res, trace = hc_condition_original(inp), reduction_trace(inp)
                assert res == _oracle_original(inp)
                assert trace == _oracle_trace(inp)
                # == would accept an int where the oracle has a Fraction
                assert all(type(v) is Fraction for v in res.values)
                assert all(type(e.pairing) is type(e.pairing_top) is type(e.slack) is Fraction
                           for e in trace)
                cases += 1
    assert cases == 975


def test_lambda_one_pairs_equally_with_every_noncompact_root():
    for pr in catalog():
        rs = pr.root_system
        lam1 = lambda_one(pr)
        gamma_r = strongly_orthogonal_cascade(pr).gammas[-1]
        want = weight_on_coroot(rs, lam1, gamma_r) * rs.inner2(gamma_r, gamma_r)
        for gamma in partition_roots(pr).noncompact_pos:
            assert weight_on_coroot(rs, lam1, gamma) * rs.inner2(gamma, gamma) == want


@pytest.fixture
def corrupt_table(monkeypatch):
    """Replace one field of one noncompact-table row; the certificate cache is
    cleared around the test so that no corrupt certificate outlives it."""

    def corrupt(pair, index, **change):
        table = list(criterion._noncompact_table(pair))
        table[index] = table[index]._replace(**change)
        monkeypatch.setattr(criterion, "_noncompact_table", lambda _: tuple(table))
        criterion._trace_certificate.cache_clear()
        return table

    yield corrupt
    criterion._trace_certificate.cache_clear()


def test_corrupt_lambda_one_entry_raises(corrupt_table):
    pr = pair_by_label("sp3")
    table = corrupt_table(pr, 0, lam1=2)
    assert table[0].gamma != strongly_orthogonal_cascade(pr).gammas[-1]
    with pytest.raises(StructuralError, match="Lambda_1"):
        reduction_trace(HighestWeightInput(pr, _zero(pr), -5))


def test_corrupt_rho_entry_breaks_monotonicity(corrupt_table):
    pr = pair_by_label("su23")
    corrupt_table(pr, 0, rho=100)
    with pytest.raises(StructuralError, match="monotonicity"):
        reduction_trace(HighestWeightInput(pr, _zero(pr), -5))


def test_corrupt_root_entry_has_no_expansion(corrupt_table):
    pr = pair_by_label("e3iii")
    gamma_r = strongly_orthogonal_cascade(pr).gammas[-1]
    corrupt_table(pr, 0, gamma=tuple(c + 1 for c in gamma_r))
    with pytest.raises(StructuralError, match="expansion"):
        reduction_trace(HighestWeightInput(pr, _zero(pr), -5))


def test_corrupt_value_makes_the_two_forms_disagree(corrupt_table):
    # the single inequality does not read the table, so it catches a bad row
    pr = pair_by_label("su22")
    table = corrupt_table(pr, 0, rho=50)
    assert table[0].gamma != strongly_orthogonal_cascade(pr).gammas[-1]
    with pytest.raises(StructuralError, match="disagree"):
        hc_condition(HighestWeightInput(pr, _zero(pr), -5))


# -- property: the criterion command across the catalog ------------------------

PAIRS = catalog()


@st.composite
def criterion_inputs(draw):
    """A catalog pair, a dominant Lambda0 with entries <= 3, and a plain
    decimal lambda within 4 of that Lambda0's threshold."""
    pr = draw(st.sampled_from(PAIRS))
    lam0 = draw(st.lists(st.integers(0, 3), min_size=pr.root_system.rank - 1,
                         max_size=pr.root_system.rank - 1))
    thr = hc_threshold(pr, extend_compact_coords(pr, lam0))
    assert thr.denominator == 1
    hundredths = 100 * thr.numerator + draw(st.integers(-400, 400))
    sign = "-" if hundredths < 0 else ""
    lam = f"{sign}{abs(hundredths) // 100}.{abs(hundredths) % 100:02d}"
    return pr.label, lam0, lam


@settings(max_examples=200, deadline=None)
@given(criterion_inputs())
def test_criterion_command_property(case):
    label, lam0, lam = case
    argv = ["criterion", label, "--lambda", lam, "--output", "json"]
    if lam0:
        argv[2:2] = ["--lambda0", ",".join(map(str, lam0))]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    data = json.loads(out.getvalue())
    assert code in (0, 3)
    assert data["exists"] == (Fraction(lam) < Fraction(data["threshold"])) == (code == 0)
    assert [c["passed"] for c in data["checks"]] == [True, True]
