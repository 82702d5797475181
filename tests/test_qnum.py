import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from conftest import blocks_up_to, grid_cases

import mickepler.bases as bases
import mickepler.interbasis as interbasis
import mickepler.qnum as qnum
from mickepler.qnum import (
    ParabolicQN,
    QuantumNumberError,
    SystemParams,
    _block_dimension,
    _n_effective,
    _principal_two_n,
    _spherical_qn,
    derive_constants,
    energy,
    enumerate_m_blocks,
    format_half_integer,
    parabolic_qn,
    parabolic_separation_constant,
    parse_half_integer,
)

HYDROGEN = SystemParams(two_s=0)


def test_negative_zero_strengths_are_stored_as_positive_zero():
    params = SystemParams(two_s=0, c1=-0.0, c2=-0.0)
    assert math.copysign(1.0, params.c1) == math.copysign(1.0, params.c2) == 1.0
    # the shifts 4c / (m_i + |m -+ s|) of m = 1 carry the sign of c
    dc = derive_constants(params, 2)
    assert math.copysign(1.0, dc.delta1) == math.copysign(1.0, dc.delta2) == 1.0


class TestDerivedConstants:
    def test_unperturbed_integer_m(self):
        dc = derive_constants(HYDROGEN, 2)
        assert dc.delta1 == 0.0 and dc.delta2 == 0.0
        assert dc.m1 == 1.0 and dc.m2 == 1.0
        assert dc.m_plus == 1.0 and dc.m_minus == 0.0

    def test_pure_monopole_half_integer(self):
        dc = derive_constants(SystemParams(two_s=1), 1)
        assert dc.m1 == 0.0 and dc.m2 == 1.0
        assert dc.m_plus == 0.5 and dc.m_minus == 0.5

    def test_single_perturbation(self):
        dc = derive_constants(SystemParams(two_s=0, c1=1.0), 0)
        assert dc.m1 == approx(2.0, rel=1e-15)
        assert dc.delta1 == approx(2.0, rel=1e-15)
        assert dc.m2 == 0.0 and dc.delta2 == 0.0

    def test_parity_error(self):
        with pytest.raises(QuantumNumberError):
            derive_constants(HYDROGEN, 1)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(two_s=0, c1=-0.1)

    @pytest.mark.parametrize("c1, c2", [(math.nan, 0.0), (0.0, math.inf),
                                        (-math.inf, 0.3), (0.3, math.nan)])
    def test_non_finite_strength_rejected(self, c1, c2):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(two_s=1, c1=c1, c2=c2)

    @pytest.mark.parametrize("c1, c2", [(1.7e308, 0.0), (0.0, 4.5e307), (1e308, 1e308)])
    def test_overflowing_strength_names_both(self, c1, c2):
        # 4 c past the float range makes m1 or m2 inf and its delta nan
        with pytest.raises(ValueError, match=re.escape(f"c1={c1:g}, c2={c2:g} are too large")):
            derive_constants(SystemParams(two_s=1, c1=c1, c2=c2), 1)

    def test_largest_strength_is_derived(self):
        dc = derive_constants(SystemParams(two_s=0, c1=4.49e307, c2=4.49e307), 2)
        assert all(math.isfinite(x) for x in (dc.m1, dc.m2, dc.delta1, dc.delta2))

    @given(st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-6, max_value=6),
           st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False),
           st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False))
    def test_dual_definitions_agree(self, two_s, two_m, c1, c2):
        if (two_m - two_s) % 2 != 0:
            return
        dc = derive_constants(SystemParams(two_s=two_s, c1=c1, c2=c2), two_m)
        am = abs(two_m - two_s) / 2.0
        ap = abs(two_m + two_s) / 2.0
        assert dc.m1 == approx(math.sqrt(am * am + 4 * c1), rel=1e-14, abs=1e-14)
        assert dc.m1 == approx(am + dc.delta1, rel=1e-14, abs=1e-14)
        assert dc.m2 == approx(math.sqrt(ap * ap + 4 * c2), rel=1e-14, abs=1e-14)
        assert dc.m2 == approx(ap + dc.delta2, rel=1e-14, abs=1e-14)
        assert (dc.delta1 == 0.0) == (c1 == 0.0)
        assert (dc.delta2 == 0.0) == (c2 == 0.0)
        assert dc.m_plus == (ap + am) / 2.0
        assert dc.m_minus == (ap - am) / 2.0

    @pytest.mark.parametrize("two_s, two_m, c1", [(2, -6, 5e-324), (2, -6, 1e-310),
                                                  (0, 0, 5e-324), (1, 3, 2.5e-320)])
    def test_subnormal_strength_rounds_correctly(self, two_s, two_m, c1):
        # 4 c1 / (m1 + |m - s|) may underflow to 0 for a nonzero subnormal c1;
        # either way it is the correctly rounded quotient
        dc = derive_constants(SystemParams(two_s=two_s, c1=c1), two_m)
        am = Fraction(abs(two_m - two_s), 2)
        assert dc.delta1 == float(4 * Fraction(c1) / (Fraction(dc.m1) + am))

    def test_small_c_no_cancellation(self):
        # rationalized form keeps tiny shifts at full relative accuracy
        dc = derive_constants(SystemParams(two_s=0, c1=1e-14), 2)
        assert dc.delta1 == approx(1e-14, rel=1e-12)


class TestEnergy:
    def test_hydrogen_ground_state(self):
        assert energy(HYDROGEN, 0, 2) == approx(-0.5, rel=1e-15)

    def test_half_integer_ground_state(self):
        # s=1/2, m=1/2: smallest level n = 3/2 gives E = -2/9
        params = SystemParams(two_s=1)
        assert energy(params, 1, 3) == approx(-2.0 / 9.0, rel=1e-14)

    def test_unit_total_shift(self):
        # delta1 + delta2 = 1 at n = 1 gives E = -2/9; with m=s=0,
        # delta_i = 2 sqrt(c_i), so c1 = 1/16, c2 = 1/64 gives 1/2 + 1/4...
        # simpler: c1 = 1/4, c2 = 0 gives delta1 = 1.
        params = SystemParams(two_s=0, c1=0.25)
        dc = derive_constants(params, 0)
        assert dc.delta_total == approx(1.0, rel=1e-14)
        assert energy(params, 0, 2) == approx(-1.0 / (2.0 * 1.5**2), rel=1e-14)
        assert energy(params, 0, 2) == approx(-2.0 / 9.0, rel=1e-14)

    def test_invalid_n_raises(self):
        with pytest.raises(QuantumNumberError):
            energy(HYDROGEN, 4, 2)   # m_plus = 2 > n - 1

    def test_monotone_in_n(self):
        params = SystemParams(two_s=1, c1=0.4, c2=0.9)
        values = [energy(params, 1, two_n) for two_n in (3, 5, 7, 9, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=-2, max_value=2),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_epsilon_inverse(self, two_s, d, c1, c2):
        # E = -epsilon^2 / 2 and beta = epsilon (n1 - n2 + (m1 - m2)/2), epsilon = 1/n_eff
        params = SystemParams(two_s=two_s, c1=c1, c2=c2)
        two_m = two_s  # m = s is always a valid block root
        dc = derive_constants(params, two_m)
        two_n = dc.two_m_plus + 2 * d
        n_eff = _n_effective(dc, two_n)
        assert energy(params, two_m, two_n) * n_eff**2 == approx(-0.5, rel=1e-15)
        for n1 in range(d):
            beta = parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, two_m))
            shifted = n1 - (d - 1 - n1) + 0.5 * (dc.m1 - dc.m2)
            assert beta * n_eff == approx(shifted, rel=1e-15, abs=1e-15 * n_eff)


class TestSeparationConstant:
    def test_symmetric_state_vanishes(self):
        params = SystemParams(two_s=0, c1=0.5, c2=0.5)
        assert parabolic_separation_constant(params, ParabolicQN(2, 2, 0)) == approx(
            0.0, abs=1e-15)

    def test_hydrogen_stark_value(self):
        # n=2, (n1,n2) = (1,0): beta = epsilon * 1 = 1/2
        assert parabolic_separation_constant(HYDROGEN, ParabolicQN(1, 0, 0)) == approx(
            0.5, rel=1e-15)

    def test_pure_monopole_value(self):
        # s=1/2, m=1/2, (0,0): epsilon = 2/3, beta = (2/3)(0 + (0-1)/2) = -1/3
        params = SystemParams(two_s=1)
        assert parabolic_separation_constant(params, ParabolicQN(0, 0, 1)) == approx(
            -1.0 / 3.0, rel=1e-14)


class TestEnumeration:
    """The labels of a block: j = m_plus..n-1 and n1 = 0..d-1, n2 = d-1-n1."""

    def test_ground_block(self):
        blk = interbasis.block(HYDROGEN, 2, 0)
        assert blk.spherical_labels == ("j=0",)
        assert blk.parabolic_labels == ("n1=0",)

    def test_n3_block_counting(self):
        blk = interbasis.block(HYDROGEN, 6, 0)
        assert blk.spherical_labels == ("j=0", "j=1", "j=2")
        assert blk.parabolic_labels == ("n1=0", "n1=1", "n1=2")

    def test_half_integer_block(self):
        params = SystemParams(two_s=1)
        blk = interbasis.block(params, 5, 1)     # n = 5/2, m = 1/2
        assert blk.spherical_labels == ("j=1/2", "j=3/2")
        assert blk.parabolic_labels == ("n1=0", "n1=1")
        assert _block_dimension(derive_constants(params, 1), 5) == 2

    @given(st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-4, max_value=4),
           st.integers(min_value=1, max_value=6))
    def test_degeneracy_match(self, two_s, two_m, d):
        if (two_m - two_s) % 2 != 0:
            return
        params = SystemParams(two_s=two_s, c1=0.2, c2=0.1)
        dc = derive_constants(params, two_m)
        two_n = dc.two_m_plus + 2 * d
        blk = interbasis.block(params, two_n, two_m)
        assert _block_dimension(dc, two_n) == blk.dim == d
        assert blk.spherical_labels == tuple(
            f"j={format_half_integer(dc.two_m_plus + 2 * k)}" for k in range(d))
        assert blk.parabolic_labels == tuple(f"n1={n1}" for n1 in range(d))
        for n1 in range(d):
            assert _principal_two_n(dc, ParabolicQN(n1, d - 1 - n1, two_m)) == two_n

    def test_m_blocks_hydrogen(self):
        assert enumerate_m_blocks(HYDROGEN, 4) == [-2, 0, 2]

    def test_m_blocks_monopole(self):
        # s = 3/2: m_plus >= 3/2, so n = 3/2 admits only |m| <= 3/2
        params = SystemParams(two_s=3)
        assert enumerate_m_blocks(params, 5) == [-3, -1, 1, 3]

    def test_m_blocks_follow_the_label_rule(self):
        # the reference keeps every two_m of the parity of two_s in |m| <= n - 1
        # whose block dimension n - m_plus is a positive integer
        def reference(params, two_n):
            out = []
            for two_m in range(-(two_n - 2), two_n - 1):
                if (two_m - params.two_s) % 2 == 0:
                    try:
                        _block_dimension(derive_constants(params, two_m), two_n)
                    except QuantumNumberError:
                        continue
                    out.append(two_m)
            return out

        for two_s in range(-5, 6):
            params = SystemParams(two_s=two_s, c1=0.3, c2=0.7)
            for two_n in range(25):
                assert enumerate_m_blocks(params, two_n) == reference(params, two_n), (
                    two_s, two_n)

    def test_blocks_are_enumerated_without_constants(self, monkeypatch):
        # at c1 = 1.7e308 every m1 overflows; the labels alone decide the blocks
        def refuse(*args):
            raise AssertionError("derive_constants was called")

        monkeypatch.setattr(qnum, "derive_constants", refuse)
        assert qnum.enumerate_blocks(SystemParams(two_s=2, c1=1.7e308), 3) == [
            (4, -2), (4, 0), (4, 2), (6, -4), (6, -2), (6, 0), (6, 2), (6, 4)]

    @pytest.mark.parametrize("n_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_n_max_is_refused(self, n_max):
        # one message from one check, not OverflowError or int()'s NaN error
        with pytest.raises(QuantumNumberError, match=f"n_max must be finite, got {n_max:g}"):
            qnum.enumerate_blocks(HYDROGEN, n_max)

    def test_label_validation(self):
        with pytest.raises(QuantumNumberError):
            bases.spherical_state(HYDROGEN, 4, 6, 0)   # j = 3 > n - 1
        with pytest.raises(QuantumNumberError):
            bases.spherical_state(HYDROGEN, 4, 0, 2)   # j < m_plus
        with pytest.raises(QuantumNumberError):
            parabolic_qn(HYDROGEN, -1, 0, 0)


class TestHalfIntegerParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1/2", 1), ("-1/2", -1), ("2", 4), ("0.5", 1), ("-1.5", -3), ("0", 0),
    ])
    def test_parse(self, text, expected):
        assert parse_half_integer(text) == expected

    def test_reject_non_half_integer(self):
        with pytest.raises(ValueError):
            parse_half_integer("1/3")
        with pytest.raises(ValueError):
            parse_half_integer("0.3")

    @pytest.mark.parametrize("text", ["1/0", "1e400"])
    def test_reject_text_that_is_no_finite_number(self, text):
        with pytest.raises(ValueError, match=f"^{text!r} is not a finite number$"):
            parse_half_integer(text)

    @given(st.integers(min_value=-20, max_value=20))
    def test_round_trip(self, two_x):
        assert parse_half_integer(format_half_integer(two_x)) == two_x

    @staticmethod
    def _by_fraction(text):
        """Every text through Fraction: the parse without its integer fast path."""
        try:
            doubled = Fraction(text.strip()) * 2
            float(doubled)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"{text!r} is not a finite number") from exc
        if doubled.denominator != 1:
            raise ValueError(f"{text!r} is not an integer or half-integer")
        return int(doubled)

    @staticmethod
    def _outcome(parse, text):
        try:
            value = parse(text)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        return type(value), value

    _BODIES = st.one_of(
        st.integers(min_value=0, max_value=10**6).map(str),
        # 400 digits, and integers whose double straddles the float range's end
        st.integers(min_value=10**399, max_value=10**400 - 1).map(str),
        st.integers(min_value=2**1023 - 2**971, max_value=2**1023 + 2**971).map(str),
        st.sampled_from(["1_000", "-3", "+3", "\u0663", "\u0661\u0662", "\u00b2", "1/2",
                         "-3/2", "0.5", "1.5", "1e400", "1/0", "0.3", "", "_1", "1_"]),
        st.text(alphabet="0123456789+-_./e \u0663", max_size=8),
    )

    @given(st.sampled_from(["", " ", "\t", " \n", "\u3000"]),
           st.sampled_from(["", "+", "-", "--", "+-", "-+", "++"]),
           st.sampled_from(["", "0", "000"]),
           _BODIES,
           st.sampled_from(["", " ", "\n", "\u3000"]))
    def test_integer_fast_path_matches_fraction(self, lead, sign, zeros, body, trail):
        text = lead + sign + zeros + body + trail
        assert (self._outcome(parse_half_integer, text)
                == self._outcome(self._by_fraction, text))

    @pytest.mark.parametrize("text", ["1" * 400, " -0001" + "9" * 399 + " "])
    def test_400_digit_integer_is_no_finite_number(self, text):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not a finite number$"):
            parse_half_integer(text)


class TestBlockConstantsDerivedOnce:
    """States and blocks derive their constants once and keep every label error."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []

        def counting_derive_constants(params, two_m):
            calls.append(two_m)
            return derive_constants(params, two_m)

        # every name the builders could reach it through, qnum's own included
        for module in (qnum, bases, interbasis):
            monkeypatch.setattr(module, "derive_constants", counting_derive_constants)
        return calls

    RING = SystemParams(two_s=1, c1=0.3, c2=0.7)

    def test_spherical_state(self, derivations):
        bases.spherical_state(self.RING, 9, 3, 1)
        assert derivations == [1]

    def test_parabolic_state(self, derivations):
        bases.parabolic_state(self.RING, 1, 2, -1)
        assert derivations == [-1]

    def test_block(self, derivations):
        interbasis.block(self.RING, 9, 1)
        assert derivations == [1]

    @pytest.mark.parametrize("build, message", [
        (lambda: bases.spherical_state(SystemParams(two_s=1), 4, 2, 0),
         "m and s must share half-integrality: two_m=0, two_s=1"),
        (lambda: bases.parabolic_state(SystemParams(two_s=1), 0, 1, 0),
         "m and s must share half-integrality: two_m=0, two_s=1"),
        (lambda: interbasis.block(SystemParams(two_s=1), 3, 0),
         "m and s must share half-integrality: two_m=0, two_s=1"),
        (lambda: bases.spherical_state(HYDROGEN, 6, 0, 2),
         "two_j=0 must exceed two_m_plus=2 by an even amount"),
        (lambda: _spherical_qn(derive_constants(HYDROGEN, 2), 6, 0),
         "two_j=0 must exceed two_m_plus=2 by an even amount"),
        (lambda: bases.spherical_state(HYDROGEN, 4, 4, 0),
         "radial quantum number n - j - 1 must be a nonnegative integer: two_n=4, two_j=4"),
        (lambda: bases.parabolic_state(HYDROGEN, -1, 2, 0),
         "n1, n2 must be nonnegative, got (-1, 2)"),
        (lambda: interbasis.block(HYDROGEN, 2, 2),
         "no bound states with two_n=2 in the two_m=2 block "
         "(need n - m_plus a positive integer, m_plus=1.0)"),
        (lambda: _block_dimension(derive_constants(HYDROGEN, 2), 2),
         "no bound states with two_n=2 in the two_m=2 block "
         "(need n - m_plus a positive integer, m_plus=1.0)"),
        (lambda: _n_effective(derive_constants(HYDROGEN, 2), 2),
         "no bound states with two_n=2 in the two_m=2 block "
         "(need n - m_plus a positive integer, m_plus=1.0)"),
    ])
    def test_label_errors_keep_their_messages(self, build, message):
        with pytest.raises(QuantumNumberError) as exc:
            build()
        assert str(exc.value) == message


class TestConstantsMemo:
    """derive_constants keeps one DerivedConstants per typed (params, two_m)."""

    MEMO = qnum._derive_constants
    FRESH = staticmethod(qnum._derive_constants.__wrapped__)   # the body, uncached

    @staticmethod
    def _typed(dc):
        """Every field and property of dc with its type, floats by their bits."""
        values = [getattr(dc, f.name) for f in dataclasses.fields(dc)]
        values += [dc.m_plus, dc.m_minus, dc.delta_total]
        return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]

    def test_bound(self):
        assert 256 <= self.MEMO.cache_info().maxsize < math.inf

    def test_overflow_raises_on_every_call(self):
        params = SystemParams(two_s=1, c1=1e308, c2=0.7)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^c1=1e\+308, c2=0\.7 are too large"):
                derive_constants(params, 1)

    def test_parity_error_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(QuantumNumberError,
                               match="^m and s must share half-integrality: two_m=0, two_s=1$"):
                derive_constants(SystemParams(two_s=1), 0)

    @pytest.mark.parametrize("twin", [(1.0, 1.0), (1, 1.0), (1.0, 1), (np.int64(1), np.int64(1)),
                                      (True, 1)])
    def test_equal_labels_of_other_types_share_no_entry(self, twin):
        # 1 == 1.0 == np.int64(1) == True with equal hashes; each returns its own types
        two_s, two_m = twin
        labels = [(1, 1), (two_s, two_m), (1, 1)]
        for ts, tm in labels:
            params = SystemParams(two_s=ts)
            got = derive_constants(params, tm)
            assert self._typed(got) == self._typed(self.FRESH(ts, 0.0, 0.0, tm))

    def test_cached_equals_fresh_on_acceptance_grid(self):
        for params in grid_cases():
            for two_m in {two_m for _, two_m in blocks_up_to(params, 5)}:
                first = derive_constants(params, two_m)
                again = derive_constants(params, two_m)
                assert again is first
                fresh = self.FRESH(params.two_s, params.c1, params.c2, two_m)
                assert self._typed(again) == self._typed(fresh)

    def test_memo_stays_bounded(self):
        for k in range(5000):
            derive_constants(SystemParams(two_s=0, c1=1.0 + k), 0)
        info = self.MEMO.cache_info()
        assert info.currsize <= info.maxsize

    def test_one_constants_object_per_block(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        dc = derive_constants(params, 1)
        assert bases.spherical_state(params, 9, 3, 1).dc is dc
        assert bases.parabolic_state(params, 1, 2, 1).dc is dc
