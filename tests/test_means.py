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
    mat_sqrt,
    mean_identity_grid,
    mean_identity_suite,
    random_spd,
    spectral_mean,
    spectral_mean_unitary,
    spectrum,
)
from spdmeans.linalg import mat_pow
from spdmeans.means import (
    IDENTITY_NAMES,
    IDENTITY_TOL,
    _factor,
    _gram_root,
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
        # The same pair, as arrays, in the middle of a stack of good pairs:
        # its means get the same bits as the pair alone, and match the
        # fixture.
        pairs = [(random_spd(4, 10 + 2 * k), random_spd(4, 11 + 2 * k)) for k in range(3)]
        pairs.insert(2, (random_spd(4, 3002, 14), random_spd(4, 3003, 14)))
        a = np.stack([p.mat for p, _ in pairs])
        b = np.stack([q.mat for _, q in pairs])
        ts = [0.3, 0.5]
        stack = _MeanPair(a, b)
        for kind in ("sharp", "natural"):
            stacked = getattr(stack, kind + "s")(ts)
            for k in range(len(pairs)):
                assert np.array_equal(stacked[k], getattr(_MeanPair(a[k], b[k]), kind + "s")(ts))
            for got, (t, want) in zip(stacked[2], edge["means"][kind].items()):
                assert float(t) in ts
                assert _mean_error(got, _fixture_matrix(want)) <= _mean_bound(a[2], b[2])


def test_one_by_one_pairs_get_the_same_bits_in_a_stack():
    # At n = 1 the powers of a pair alone have one element; a pair in a
    # stack of three gets the same bits.
    rng = np.random.default_rng(11)
    a, b = (rng.uniform(0.1, 10.0, (100, 3, 1, 1)).astype(complex) for _ in range(2))
    for kind in ("sharps", "naturals"):
        for stack_a, stack_b in zip(a, b):
            stacked = getattr(_MeanPair(stack_a, stack_b), kind)([0.5])
            alone = [getattr(_MeanPair(x, y), kind)([0.5]) for x, y in zip(stack_a, stack_b)]
            assert np.array_equal(stacked, alone), kind


class TestRowGather:
    """``_MeanPair._rows`` gathers a stack's SVDs to its rows; the means then
    equal, under ==, those of the full stack computed row by row."""

    @pytest.fixture
    def stacks(self):
        a, b = random_spd(4, 21), random_spd(4, 22)
        pair = _MeanPair(a, b)
        r = np.array([0.1, 0.4, 0.1, 0.25, 0.4, 0.0])
        r_set, rows = np.unique(r, return_inverse=True)
        return pair, _root(b), r, r_set, rows

    def test_chain_pairs(self, stacks):
        pair, b, r, r_set, rows = stacks
        u = np.linspace(0.0, 1.0, len(r))[:, None]
        sharp_once = _MeanPair(_gram_root(*pair.sharp_factors(r_set)), b)
        nat_once = _MeanPair(_gram_root(*pair.natural_factors(r_set)), b)
        sharp_once._mid_svd(), nat_once._cross_svd()
        sharp_full = _MeanPair(_gram_root(*pair.sharp_factors(r)), b).sharps(u)
        nat_full = _MeanPair(_gram_root(*pair.natural_factors(r)), b).naturals(u)
        assert np.array_equal(sharp_once._rows(rows).sharps(u), sharp_full)
        assert np.array_equal(nat_once._rows(rows).naturals(u), nat_full)

    def test_new_b_shares_only_the_roots(self, stacks):
        pair, b, r, r_set, rows = stacks
        other = _factor(*pair.natural_factors([0.5, 0.2, 0.3, 0.1, 0.0, 0.6]))
        once = _MeanPair(_gram_root(*pair.natural_factors(r_set)), b)
        once._cross_svd()
        gathered = once._rows(rows, other)
        assert gathered._mid is None and gathered._cross is None
        t = [0.0, 0.3, 1.0]
        full = _MeanPair(_gram_root(*pair.natural_factors(r)), other)
        assert np.array_equal(gathered.naturals(t), full.naturals(t))
        assert np.array_equal(gathered.sharps(t), full.sharps(t))


class TestSpectralMeanUnitary:
    def test_defining_identity(self):
        a = random_spd(4, 51)
        b = random_spd(4, 52)
        u = spectral_mean_unitary(a, b)
        ra = mat_sqrt(a).mat
        inner = mat_sqrt(SpdMatrix(ra @ b.mat @ ra)).mat
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
        rep = mean_identity_suite(a, a, 0.3, 0.25, 0.5)
        assert rep.passed

    def test_random_pair_all_identities(self):
        a = random_spd(5, 81)
        b = random_spd(5, 82)
        rep = mean_identity_suite(a, b, 0.3, 0.25, 0.5)
        assert rep.passed, rep.residuals

    def test_grid_skips_invalid_triples(self):
        a = random_spd(2, 91)
        b = random_spd(2, 92)
        reports = mean_identity_grid(a, b, [0.5], [0.8, 1.0], [0.5])
        # r=0.8,s=0.5 exceeds r+s<=1 and r=1.0 is excluded: nothing valid.
        assert reports == []

    def test_param_out_of_range(self):
        a = random_spd(2, 93)
        with pytest.raises(ParamOutOfRange):
            mean_identity_suite(a, a, 0.5, 0.7, 0.7)
        with pytest.raises(ParamOutOfRange):
            mean_identity_suite(a, a, 1.2, 0.1, 0.1)

    def test_rs_rule_message(self):
        a = random_spd(2, 93)
        for r, s_ in ((0.7, 0.7), (1.0, 0.0)):
            with pytest.raises(ParamOutOfRange, match="need r \\+ s <= 1 and r < 1"):
                mean_identity_suite(a, a, 0.5, r, s_)

    def test_unit_check_before_rs_rule(self):
        # r = 1.5 fails both; as before, the unit check names it first.
        a = random_spd(2, 93)
        with pytest.raises(ParamOutOfRange, match="r must lie in"):
            mean_identity_suite(a, a, 0.5, 1.5, 0.5)

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
                mean_identity_suite(a, a, *triple)
        else:
            mean_identity_suite(a, a, *triple)
        assert calls == [triple]

    def test_grid_filter_is_the_rs_rule(self):
        from spdmeans.means import _rs_defined

        values = (0.0, 0.1, 0.5, 0.9, 1.0, 1.0 + 1e-16)
        a = random_spd(2, 97)
        reports = mean_identity_grid(a, a, [0.5], values, values)
        kept = [(r, s) for r in values for s in values if _rs_defined(r, s)]
        assert [rep.params[1:] for rep in reports] == kept
        assert (0.5, 0.5) in kept and (0.9, 0.1 + 1e-16) not in kept
        assert not _rs_defined(1.0, 0.0) and _rs_defined(0.1, 0.9)

    def test_endpoint_parameters(self):
        a = random_spd(3, 94)
        b = random_spd(3, 95)
        rep = mean_identity_suite(a, b, 0.0, 0.0, 1.0)
        assert rep.passed
        rep = mean_identity_suite(a, b, 1.0, 0.5, 0.5)
        assert rep.passed

    def test_grid_matches_single_evaluations(self):
        # The grid shares work between triples; every report must still be
        # the one a fresh evaluation of its triple gives, bit for bit.
        t_grid, r_grid, s_grid = IDENTITY_GRIDS
        triples = [
            (t, r, s)
            for t in t_grid
            for r in r_grid
            for s in s_grid
            if r + s <= 1.0 + 1e-15 and r < 1.0
        ]
        for n in (2, 3, 4, 5, 6):
            a = random_spd(n, 300 + n)
            b = random_spd(n, 400 + n)
            reports = mean_identity_grid(a, b, *IDENTITY_GRIDS)
            assert [rep.params for rep in reports] == triples
            for rep in reports:
                single = mean_identity_suite(a, b, *rep.params)
                assert list(rep.residuals) == list(IDENTITY_NAMES)
                for name in IDENTITY_NAMES:
                    assert rep.residuals[name] == single.residuals[name], (
                        n, rep.params, name,
                    )


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
    for rep in mean_identity_grid(a, b, *IDENTITY_GRIDS):
        ref = _reference_laws(a, b, *rep.params)
        for name in IDENTITY_NAMES:
            got, want = rep.residuals[name], ref[name]
            assert abs(got - want) <= 1e-12, (rep.params, name, got, want)
            assert (got <= IDENTITY_TOL) == (want <= IDENTITY_TOL)
