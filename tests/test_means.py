import json
from pathlib import Path

import numpy as np
import pytest

from spdmeans import (
    ComplexMatrix,
    DimensionMismatch,
    HermitianMatrix,
    ParamOutOfRange,
    SpdMatrix,
    eig_hermitian,
    geometric_mean,
    loewner_leq,
    random_spd,
    spectral_mean,
    spectral_mean_unitary,
    spectrum,
)
from spdmeans.linalg import eigh_stack, mat_pow
from spdmeans.means import (
    IDENTITY_NAMES,
    IDENTITY_TOL,
    _gram_root,
    _IdentityContext,
    _MeanPair,
    _root,
    rel_residual,
    spd_det,
)
from spdmeans.suites import IDENTITY_GRIDS

MEAN_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "mean_reference.json").read_text()
)["cases"]
# Bound on each mean's max-entry error, relative to its max entry:
# MEAN_C * sqrt(cond A * cond B) * eps.  A Gram factor of a mean has the
# square root of the mean's condition number, and its SVD errs by about eps
# times that.  The worst case of the fixture reads about 12 of MEAN_C.
MEAN_C = 32.0


def _fixture_matrix(entry):
    return np.array(entry["re"]) + 1j * np.array(entry["im"])


def _mean_bound(a, b) -> float:
    cond = np.prod([vals[0] / vals[-1] for vals in np.linalg.eigvalsh(np.stack([a, b]))[:, ::-1]])
    return MEAN_C * np.sqrt(cond) * np.finfo(float).eps


def _mean_error(got, want) -> float:
    return np.abs(got - want).max() / np.abs(want).max()


ORDER_CEX_A = [[6.0, -3.0], [-3.0, 4.0]]
ORDER_CEX_B = [[4.0, -2.0], [-2.0, 5.0]]


@pytest.fixture
def order_counterexample():
    return SpdMatrix(ORDER_CEX_A), SpdMatrix(ORDER_CEX_B)


class TestGeometricMean:
    def test_commuting_diagonals(self):
        a = SpdMatrix(np.diag([16.0, 1.0]))
        b = SpdMatrix(np.diag([2.0, 4.0]))
        m = geometric_mean(a, b, 0.5)
        assert np.abs(m.mat - np.diag([4.0 * np.sqrt(2.0), 2.0])).max() < 1e-12

    def test_endpoints(self):
        a = random_spd(4, 1)
        b = random_spd(4, 2)
        assert np.abs(geometric_mean(a, b, 0.0).mat - a.mat).max() < 1e-12
        assert np.abs(geometric_mean(a, b, 1.0).mat - b.mat).max() < 1e-12

    def test_printed_reference_matrix(self, order_counterexample):
        a, b = order_counterexample
        m = geometric_mean(a, b, 0.5)
        ref = np.array([[4.8990, -2.4495], [-2.4495, 4.3870]])
        assert np.abs(m.mat - ref).max() <= 5e-5

    def test_symmetry_in_t(self):
        a = random_spd(3, 10)
        b = random_spd(3, 11)
        for t in (0.2, 0.5, 0.9):
            lhs = geometric_mean(a, b, t).mat
            rhs = geometric_mean(b, a, 1.0 - t).mat
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()

    def test_determinant_law(self):
        a = random_spd(5, 20)
        b = random_spd(5, 21)
        det_a = np.prod(eig_hermitian(a).values)
        det_b = np.prod(eig_hermitian(b).values)
        for t in np.linspace(0.0, 1.0, 11):
            m = geometric_mean(a, b, float(t))
            det_m = np.prod(eig_hermitian(m).values)
            target = det_a ** (1 - t) * det_b ** t
            assert abs(det_m - target) <= 1e-10 * abs(target)

    def test_param_validation(self):
        a = random_spd(2, 1)
        with pytest.raises(ParamOutOfRange):
            geometric_mean(a, a, 1.5)
        with pytest.raises(DimensionMismatch):
            geometric_mean(a, random_spd(3, 2), 0.5)


class TestSpectralMean:
    def test_printed_reference_matrix(self, order_counterexample):
        a, b = order_counterexample
        m = spectral_mean(a, b, 0.5)
        ref = np.array([[4.8992, -2.4896], [-2.4896, 4.4273]])
        assert np.abs(m.mat - ref).max() <= 5e-5

    def test_commuting_equals_geometric(self):
        a = SpdMatrix(np.diag([2.0, 5.0]))
        b = SpdMatrix(np.diag([3.0, 7.0]))
        ref = np.diag(np.sqrt([2.0 * 3.0, 5.0 * 7.0]))
        assert np.abs(spectral_mean(a, b, 0.5).mat - ref).max() < 1e-12
        assert np.abs(geometric_mean(a, b, 0.5).mat - ref).max() < 1e-12

    def test_eigenvalues_are_roots_of_product_spectrum(self):
        a = random_spd(4, 31)
        b = random_spd(4, 77)
        lam = eig_hermitian(spectral_mean(a, b, 0.5)).values
        prod_spec = spectrum(ComplexMatrix(a.mat @ b.mat))
        ref = np.sort(np.sqrt(prod_spec.real))[::-1]
        assert np.abs(lam - ref).max() <= 1e-9 * ref.max()

    def test_square_similar_to_product(self):
        # (A @ B)^2 has the spectrum of AB entrywise.
        a = random_spd(5, 41)
        b = random_spd(5, 42)
        m = spectral_mean(a, b, 0.5)
        lhs = spectrum(ComplexMatrix(m.mat @ m.mat))
        rhs = spectrum(ComplexMatrix(a.mat @ b.mat))
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()

    def test_endpoints(self):
        a = random_spd(3, 5)
        b = random_spd(3, 6)
        assert np.abs(spectral_mean(a, b, 0.0).mat - a.mat).max() < 1e-11
        assert np.abs(spectral_mean(a, b, 1.0).mat - b.mat).max() <= 1e-11 * np.abs(b.mat).max()

    def test_reversal_law(self):
        a = random_spd(4, 8)
        b = random_spd(4, 9)
        for t in (0.1, 0.4, 0.8):
            lhs = spectral_mean(a, b, t).mat
            rhs = spectral_mean(b, a, 1.0 - t).mat
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()


class TestMeanAccuracy:
    """Both means against the 60-digit fixture (tests/make_target_reference.py):
    random_spd pairs at n 3..6 and spreads 2 to 13.5, and the edge pair."""

    @pytest.mark.parametrize("kind", ["sharp", "natural"])
    def test_error_within_bound(self, kind):
        mean = geometric_mean if kind == "sharp" else spectral_mean
        assert len(MEAN_REFERENCE) == 21
        for case in MEAN_REFERENCE:
            a, b = (_fixture_matrix(case[m]) for m in ("a", "b"))
            bound = _mean_bound(a, b)
            for t, want in case["means"][kind].items():
                err = _mean_error(mean(SpdMatrix(a), SpdMatrix(b), float(t)).mat,
                                  _fixture_matrix(want))
                assert err <= bound, ((case["n"], case["spread"], t), err, bound)


class TestIllConditionedPair:
    # cond(A) = 5.7e8 and cond(B) = 7.7e10 pass the SpdMatrix guard, and
    # cond(A) cond(B) = 4.4e19.  A product form of the means, decomposing
    # A^{-1/2} B A^{-1/2} or A^{1/2} B A^{1/2}, came out numerically
    # indefinite here; the Gram-factor means match the fixture.
    @pytest.fixture
    def edge(self):
        (case,) = [c for c in MEAN_REFERENCE if c["seeds"] == [3002, 3003]]
        return case

    def test_matches_reference(self, edge):
        a, b = random_spd(4, 3002, 14), random_spd(4, 3003, 14)
        assert np.array_equal(a.mat, _fixture_matrix(edge["a"]))
        assert np.array_equal(b.mat, _fixture_matrix(edge["b"]))
        bound = _mean_bound(a.mat, b.mat)
        for kind, mean in (("sharp", geometric_mean), ("natural", spectral_mean)):
            for t, want in edge["means"][kind].items():
                err = _mean_error(mean(a, b, float(t)).mat, _fixture_matrix(want))
                assert err <= bound, (kind, t, err, bound)

    def test_stack_member_matches_the_pair_alone(self, edge):
        # The same pair, as array roots, in the middle of a stack of good
        # pairs: its means get the same bits as the pair alone, and match
        # the fixture.
        pairs = [(random_spd(4, 10 + 2 * k), random_spd(4, 11 + 2 * k)) for k in range(3)]
        pairs.insert(2, (random_spd(4, 3002, 14), random_spd(4, 3003, 14)))
        a = np.stack([p.mat for p, _ in pairs])
        b = np.stack([q.mat for _, q in pairs])
        ts = [0.3, 0.5]
        stack = _MeanPair(_array_root(a), _array_root(b))
        for kind in ("sharp", "natural"):
            stacked = getattr(stack, kind + "s")(ts)
            for k in range(len(pairs)):
                alone = _MeanPair(_array_root(a[k]), _array_root(b[k]))
                assert np.array_equal(stacked[k], getattr(alone, kind + "s")(ts))
            for got, (t, want) in zip(stacked[2], edge["means"][kind].items()):
                assert float(t) in ts
                assert _mean_error(got, _fixture_matrix(want)) <= _mean_bound(a[2], b[2])


def _array_root(arr):
    """The root (h, Q) of a stack of positive definite arrays, from
    ``eigh_stack``."""
    vals, q = eigh_stack(arr)
    return np.sqrt(vals), q


def test_one_by_one_pairs_get_the_same_bits_in_a_stack():
    # At n = 1 the powers of a pair alone have one element; a pair in a
    # stack of three gets the same bits.
    rng = np.random.default_rng(11)
    a, b = (rng.uniform(0.1, 10.0, (100, 3, 1, 1)).astype(complex) for _ in range(2))
    for kind in ("sharps", "naturals"):
        for stack_a, stack_b in zip(a, b):
            stacked = getattr(_MeanPair(_array_root(stack_a), _array_root(stack_b)), kind)([0.5])
            alone = [getattr(_MeanPair(_array_root(x), _array_root(y)), kind)([0.5])
                     for x, y in zip(stack_a, stack_b)]
            assert np.array_equal(stacked, alone), kind


class TestGridAxes:
    """The identity grid is taken on plain (t, r, s) array axes, through the
    broadcast contract of ``_MeanPair``: parameters on the last axis, leading
    axes against the stack."""

    def test_parameter_array_matches_rows(self):
        # A stack (R,) of pairs at an (R, S) parameter array equals, under ==,
        # each pair alone at its own row of parameters.
        a, b = random_spd(4, 21), random_spd(4, 22)
        pair = _MeanPair(a, b)
        r = np.array([0.1, 0.4, 0.1, 0.25, 0.0])
        u = np.linspace(0.0, 1.0, 3 * len(r)).reshape(len(r), 3)
        for factors in (pair.sharp_factors, pair.natural_factors):
            h, q = _gram_root(*factors(r))
            stack = _MeanPair((h, q), _root(b))
            for kind in ("sharps", "naturals"):
                rows = [getattr(_MeanPair((h[i], q[i]), _root(b)), kind)(u[i])
                        for i in range(len(r))]
                assert np.array_equal(getattr(stack, kind)(u), rows), kind

    def test_repeated_unsorted_grid_matches_single_evaluations(self):
        # A repeated r is evaluated once per occurrence, so each row still
        # equals a fresh evaluation of its triple, in grid order.
        a, b = random_spd(4, 23), random_spd(4, 24)
        grid = ((0.5, 0.2), (0.25, 0.0, 0.25), (0.5, 0.1))
        triples = [(t, r, s_) for t in grid[0] for r in grid[1] for s_ in grid[2]]
        table = _IdentityContext(a, b).residuals(*grid)
        assert table.shape == (len(triples), len(IDENTITY_NAMES))
        for triple, row in zip(triples, table.tolist()):
            single = _IdentityContext(a, b).evaluate(*triple)
            assert row == [single[name] for name in IDENTITY_NAMES], triple


class TestSpectralMeanUnitary:
    def test_defining_identity(self):
        a = random_spd(4, 51)
        b = random_spd(4, 52)
        u = spectral_mean_unitary(a, b)
        ra = mat_pow(a, 0.5).mat
        inner = mat_pow(SpdMatrix(ra @ b.mat @ ra), 0.5).mat
        lhs = u.mat @ inner @ u.mat.conj().T
        rhs = spectral_mean(a, b, 0.5).mat
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_equal_arguments(self):
        a = random_spd(3, 61)
        u = spectral_mean_unitary(a, a)
        conj = u.mat @ a.mat @ u.mat.conj().T
        assert np.abs(conj - a.mat).max() <= 1e-10 * np.abs(a.mat).max()

    def test_commuting_gives_identity(self):
        a = SpdMatrix(np.diag([2.0, 3.0]))
        b = SpdMatrix(np.diag([5.0, 7.0]))
        u = spectral_mean_unitary(a, b)
        assert np.abs(u.mat - np.eye(2)).max() < 1e-12


class TestLoewner:
    def test_scaled_identity(self):
        a = HermitianMatrix(np.eye(3))
        b = HermitianMatrix(2.0 * np.eye(3))
        assert loewner_leq(a, b)
        assert not loewner_leq(b, a)

    def test_equal_matrices(self):
        a = HermitianMatrix(np.diag([1.0, 2.0]))
        assert loewner_leq(a, a)

    def test_joint_monotonicity_of_sharp(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = 2 + trial % 3
            a = random_spd(n, 100 + trial)
            b = random_spd(n, 200 + trial)
            ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c = SpdMatrix(a.mat + ga @ ga.conj().T)
            d = SpdMatrix(b.mat + gb @ gb.conj().T)
            t = (trial % 5) / 4.0
            assert loewner_leq(geometric_mean(a, b, t), geometric_mean(c, d, t))

    def test_order_counterexample_not_ordered(self, order_counterexample):
        a, b = order_counterexample
        sharp = geometric_mean(a, b, 0.5)
        natural = spectral_mean(a, b, 0.5)
        assert not loewner_leq(sharp, natural)
        diff = HermitianMatrix(natural.mat - sharp.mat)
        lam = np.sort(eig_hermitian(diff).values)
        assert np.abs(lam - np.array([-0.0246, 0.0651])).max() <= 5e-5


class TestIdentitySuite:
    def test_fixed_point(self):
        a = random_spd(4, 71)
        rep = _IdentityContext(a, a).evaluate(0.3, 0.25, 0.5)
        assert max(rep.values()) <= IDENTITY_TOL

    def test_random_pair_all_identities(self):
        a = random_spd(5, 81)
        b = random_spd(5, 82)
        rep = _IdentityContext(a, b).evaluate(0.3, 0.25, 0.5)
        assert max(rep.values()) <= IDENTITY_TOL, rep

    def test_determinant_laws_hold_across_the_accepted_range(self):
        # Spread 13.5: cond(A) = 4.1e11, inside the SpdMatrix range.  The
        # eigenvalues of the assembled means lose about eps cond, so their
        # products missed det(A)^{1-t} det(B)^t by up to 1.1e-5 here; the
        # squared singular values of the Gram factors miss it by 1.3e-11.
        a, b = random_spd(5, 5036, 13.5), random_spd(5, 5037, 13.5)
        table = _IdentityContext(a, b).residuals(*IDENTITY_GRIDS)
        for name in ("sharp_determinant", "natural_determinant"):
            assert table[:, IDENTITY_NAMES.index(name)].max() <= IDENTITY_TOL, name

    def test_grid_skips_invalid_triples(self):
        # The grid skips no triple: r=0.8,s=0.5 exceeds r+s<=1 and raises
        # the message evaluate gives, before r=1.0 is reached.
        a = random_spd(2, 91)
        b = random_spd(2, 92)
        with pytest.raises(ParamOutOfRange, match="need r \\+ s <= 1 and r < 1, got r = 0.8"):
            _IdentityContext(a, b).residuals([0.5], [0.8, 1.0], [0.5])
        # An empty grid has no triple, and its table no row.
        table = _IdentityContext(a, b).residuals([0.5], [], [0.5])
        assert table.shape == (0, len(IDENTITY_NAMES))

    def test_param_out_of_range(self):
        a = random_spd(2, 93)
        with pytest.raises(ParamOutOfRange):
            _IdentityContext(a, a).evaluate(0.5, 0.7, 0.7)
        with pytest.raises(ParamOutOfRange):
            _IdentityContext(a, a).evaluate(1.2, 0.1, 0.1)

    def test_rs_rule_message(self):
        a = random_spd(2, 93)
        for r, s_ in ((0.7, 0.7), (1.0, 0.0)):
            with pytest.raises(ParamOutOfRange, match="need r \\+ s <= 1 and r < 1"):
                _IdentityContext(a, a).evaluate(0.5, r, s_)

    def test_unit_check_before_rs_rule(self):
        # r = 1.5 fails both; as before, the unit check names it first.
        a = random_spd(2, 93)
        with pytest.raises(ParamOutOfRange, match="r must lie in"):
            _IdentityContext(a, a).evaluate(0.5, 1.5, 0.5)

    @pytest.mark.parametrize("triple,raises", [((0.3, 0.25, 0.5), False), ((0.5, 0.7, 0.7), True)])
    def test_evaluate_validates_once(self, monkeypatch, triple, raises):
        from spdmeans import means

        calls = []
        original = means._check_suite_params

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(means, "_check_suite_params", spy)
        a = random_spd(3, 96)
        if raises:
            with pytest.raises(ParamOutOfRange):
                _IdentityContext(a, a).evaluate(*triple)
        else:
            _IdentityContext(a, a).evaluate(*triple)
        assert calls == [triple]

    def test_grid_filter_is_the_rs_rule(self):
        # A grid of one (r, s) is evaluated iff r + s <= 1 (to 1e-15) and
        # r < 1, and raises evaluate's message otherwise; a larger grid
        # raises on its first undefined pair, in grid order.
        values = (0.0, 0.1, 0.5, 0.9, 1.0, 1.0 + 1e-16)
        a = random_spd(2, 97)
        ctx = _IdentityContext(a, a)
        for r in values:
            for s_ in values:
                if r + s_ <= 1.0 + 1e-15 and r < 1.0:
                    assert ctx.residuals([0.5], [r], [s_]).shape == (1, len(IDENTITY_NAMES))
                else:
                    with pytest.raises(ParamOutOfRange, match="need r \\+ s <= 1 and r < 1"):
                        ctx.residuals([0.5], [r], [s_])
        with pytest.raises(ParamOutOfRange, match="got r = 0.1, s = 1.0$"):
            ctx.residuals([0.5], values, values)
        ctx.evaluate(0.5, 0.1, 0.9)
        with pytest.raises(ParamOutOfRange, match="need r \\+ s <= 1"):
            ctx.evaluate(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("grid,message", [
        # Good triples come first; (0.2, 0.5, 0.75) is the first to fail.
        (([0.2, 0.5], [0.0, 0.5], [0.25, 0.75]), "need r + s <= 1 and r < 1, got r = 0.5, s = 0.75"),
        # The first triple fails on t, though its (r, s) also fails.
        (([1.5, 0.5], [0.7], [0.7]), "t must lie in [0, 1], got 1.5"),
        # A later bad t does not hide an earlier bad (r, s).
        (([0.5, 1.5], [0.7], [0.7]), "need r + s <= 1 and r < 1, got r = 0.7, s = 0.7"),
    ])
    def test_grid_raises_at_its_first_failing_triple(self, monkeypatch, grid, message):
        # The grid is tested as arrays; the scalar rule runs once, on the
        # first failing triple in grid order, and raises its own message.
        from spdmeans import means

        calls = []
        original = means._check_suite_params

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(means, "_check_suite_params", spy)
        a = random_spd(2, 98)
        with pytest.raises(ParamOutOfRange) as info:
            _IdentityContext(a, a).residuals(*grid)
        assert str(info.value) == message
        assert len(calls) == 1

    def test_grid_check_matches_the_loop(self):
        # Reference: _check_suite_params on every triple in grid order, the
        # loop the array test replaced; both raise the same first message.
        from spdmeans.means import _check_suite_params

        pool = (0.0, 0.1, 0.5, 0.9, 1.0, 1.0 + 1e-16, 1.5, -0.1, np.nan)
        rng = np.random.default_rng(99)
        a = random_spd(2, 99)
        ctx = _IdentityContext(a, a)
        for _ in range(200):
            grid = [list(rng.choice(pool, size=rng.integers(1, 4))) for _ in range(3)]
            expected = None
            try:
                for t in grid[0]:
                    for r in grid[1]:
                        for s_ in grid[2]:
                            _check_suite_params(t, r, s_)
            except ParamOutOfRange as exc:
                expected = str(exc)
            if expected is None:
                assert ctx.residuals(*grid).shape[0] == np.prod([len(v) for v in grid])
            else:
                with pytest.raises(ParamOutOfRange) as info:
                    ctx.residuals(*grid)
                assert str(info.value) == expected

    def test_endpoint_parameters(self):
        a = random_spd(3, 94)
        b = random_spd(3, 95)
        rep = _IdentityContext(a, b).evaluate(0.0, 0.0, 1.0)
        assert max(rep.values()) <= IDENTITY_TOL
        rep = _IdentityContext(a, b).evaluate(1.0, 0.5, 0.5)
        assert max(rep.values()) <= IDENTITY_TOL

    def test_grid_matches_single_evaluations(self):
        # The grid shares work between triples; every report must still be
        # the one a fresh evaluation of its triple gives, bit for bit.
        t_grid, r_grid, s_grid = IDENTITY_GRIDS
        triples = [(t, r, s) for t in t_grid for r in r_grid for s in s_grid]
        for n in (2, 3, 4, 5, 6):
            a = random_spd(n, 300 + n)
            b = random_spd(n, 400 + n)
            table = _IdentityContext(a, b).residuals(*IDENTITY_GRIDS)
            assert table.shape == (len(triples), len(IDENTITY_NAMES))
            for triple, row in zip(triples, table.tolist()):
                single = _IdentityContext(a, b).evaluate(*triple)
                assert list(single) == list(IDENTITY_NAMES)
                for name, value in zip(IDENTITY_NAMES, row):
                    assert value == single[name], (n, triple, name)


def _inverse(m):
    pair = eig_hermitian(m)
    return SpdMatrix._from_eig(pair.vectors, 1.0 / pair.values)


def _reference_laws(a, b, t, r, s):
    """The identity laws of one triple, each evaluated on its own from the
    one-pair, one-parameter means."""
    pair, swapped = _MeanPair(a, b), _MeanPair(b, a)
    a_inv = _inverse(a)
    inverse = _MeanPair(a_inv, _inverse(b))

    def link(u):
        return _MeanPair(a_inv, pair.natural(u)).sharp(0.5)

    def rel(lhs, rhs):
        return rel_residual(lhs.mat, rhs.mat)

    nat_t, sharp_t, swap_nat_t = pair.natural(t), pair.sharp(t), swapped.natural(t)
    nat_inv_half = _inverse(pair.natural(0.5))
    cross_t = mat_pow(pair.cross(), t)
    c_t = link(t)
    ct_inv = _inverse(c_t)
    g = pair.sharp(0.5)
    det_target = spd_det(a) ** (1.0 - t) * spd_det(b) ** t
    det_scale = max(abs(det_target), 1e-300)
    u = s / (1.0 - r)
    return {
        "natural_inverse_half": rel(nat_inv_half, inverse.natural(0.5)),
        "natural_inverse_t": rel(_inverse(nat_t), inverse.natural(t)),
        "natural_swap_t": rel(nat_t, swapped.natural(1.0 - t)),
        "sharp_swap_t": rel(sharp_t, swapped.sharp(1.0 - t)),
        "link_half": rel(link(0.5), _MeanPair(nat_inv_half, b).sharp(0.5)),
        "link_t_left": rel(c_t, cross_t),
        "link_t_right": rel(_MeanPair(_inverse(swap_nat_t), b).sharp(0.5), cross_t),
        "conjugation_t_p": rel_residual(c_t.mat @ a.mat @ c_t.mat, nat_t.mat),
        "conjugation_t_q": rel_residual(ct_inv.mat @ b.mat @ ct_inv.mat, swap_nat_t.mat),
        "natural_interpolation": rel(
            _MeanPair(pair.natural(r), pair.natural(s)).natural(t),
            pair.natural((1.0 - t) * r + t * s),
        ),
        "sharp_chain": rel(pair.sharp(r + s), _MeanPair(pair.sharp(r), b).sharp(u)),
        "natural_chain": rel(pair.natural(r + s), _MeanPair(pair.natural(r), b).natural(u)),
        "riccati_midpoint": rel_residual(g.mat @ a_inv.mat @ g.mat, b.mat),
        "sharp_determinant": abs(spd_det(sharp_t) - det_target) / det_scale,
        "natural_determinant": abs(spd_det(nat_t) - det_target) / det_scale,
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_grid_matches_per_triple_reference(n):
    # The stacked grid against every law evaluated one triple at a time.
    a = random_spd(n, 500 + n)
    b = random_spd(n, 600 + n)
    t_grid, r_grid, s_grid = IDENTITY_GRIDS
    triples = [(t, r, s) for t in t_grid for r in r_grid for s in s_grid]
    table = _IdentityContext(a, b).residuals(*IDENTITY_GRIDS)
    assert table.shape == (len(triples), len(IDENTITY_NAMES))
    for triple, row in zip(triples, table.tolist()):
        ref = _reference_laws(a, b, *triple)
        for name, got in zip(IDENTITY_NAMES, row):
            want = ref[name]
            assert abs(got - want) <= 1e-12, (triple, name, got, want)
            assert (got <= IDENTITY_TOL) == (want <= IDENTITY_TOL)
