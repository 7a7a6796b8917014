import json
import math
import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from gridse import (
    CovarianceModel,
    InputError,
    Measurement,
    MeasurementKind,
    MeasurementSet,
    NonPositiveVariance,
    StateVector,
    ZeroMagnitude,
    load_measurements,
    measurements_to_dict,
    polar_to_rect_variance,
    to_polar,
    to_rectangular,
    wrap_angle,
)
from gridse.measurements import (
    ARITY,
    KINDS,
    Correlation,
    InversePattern,
    location_columns,
    measurements_from_dict,
)
from gridse.states import POLAR, RECTANGULAR

K = MeasurementKind


class TestStateConversions:
    def test_flat_state_to_rectangular(self):
        s = StateVector(POLAR, [0.0, 0.0, 1.0, 1.0], 1)
        r = to_rectangular(s)
        assert np.allclose(r.re, [1.0, 1.0])
        assert np.allclose(r.im, [0.0, 0.0])

    def test_quarter_turn(self):
        s = StateVector(POLAR, [math.pi / 2, 0.0, 2.0, 1.0], 2)
        r = to_rectangular(s)
        assert r.re[0] == pytest.approx(0.0, abs=1e-15)
        assert r.im[0] == pytest.approx(2.0)

    def test_rect_to_polar_axis_points(self):
        s = StateVector(RECTANGULAR, [1.0, 0.0, 0.0, -1.0], 1)
        p = to_polar(s)
        assert p.magnitudes[0] == pytest.approx(1.0)
        assert p.angles[0] == pytest.approx(0.0)
        assert p.magnitudes[1] == pytest.approx(1.0)
        assert p.angles[1] == pytest.approx(-math.pi / 2)

    def test_three_four_five(self):
        s = StateVector(RECTANGULAR, [3.0, 1.0, 4.0, 0.0], 2)
        p = to_polar(s)
        assert p.magnitudes[0] == pytest.approx(5.0, rel=1e-14)
        assert p.angles[0] == pytest.approx(math.atan2(4.0, 3.0), rel=1e-14)
        assert p.angles[0] == pytest.approx(0.927295218002, rel=1e-11)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            theta = rng.uniform(-math.pi + 1e-6, math.pi, n)
            vmag = rng.uniform(0.2, 2.0, n)
            s = StateVector(POLAR, np.concatenate([theta, vmag]),
                            int(rng.integers(1, n + 1)),
                            slack_value=float(theta[0]))
            s.values[s.slack_index] = s.slack_value
            back = to_polar(to_rectangular(s))
            assert np.max(np.abs(back.values - s.values)) < 1e-12

    def test_zero_voltage_has_no_polar_form(self):
        s = StateVector(RECTANGULAR, [0.0, 1.0, 0.0, 0.0], 2)
        with pytest.raises(ZeroMagnitude):
            to_polar(s)

    def test_polar_requires_positive_magnitudes(self):
        with pytest.raises(ZeroMagnitude):
            StateVector(POLAR, [0.0, 0.0, 1.0, 0.0], 1)

    def test_wrap_angle_principal_branch(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.25) == 0.25


class TestPolarToRectVariance:
    def test_zero_angle_symmetry(self):
        v_re, v_im, cov = polar_to_rect_variance(1.0, 1e-4, 0.0, 1e-4)
        assert v_re == pytest.approx(1e-4, rel=1e-12)
        assert v_im == pytest.approx(1e-4 * (1.0 + 1e-4), rel=1e-12)
        assert cov == pytest.approx(0.0, abs=1e-20)

    def test_quarter_turn_swaps_axes(self):
        v, w = 3e-4, 7e-6
        v_re, v_im, cov = polar_to_rect_variance(1.0, v, math.pi / 2, w)
        assert v_re == pytest.approx(w * (1.0 + v), rel=1e-12)
        assert v_im == pytest.approx(v, rel=1e-12)
        assert cov == pytest.approx(0.0, abs=1e-19)

    def test_diagonal_case_values(self):
        # second-order propagation: across the angle v_ang (z^2 + v_mag)
        # = 4.0001e-4; the Monte-Carlo check lives in the acceptance suite
        v_re, v_im, cov = polar_to_rect_variance(2.0, 1e-4, math.pi / 4, 1e-4)
        assert v_re == pytest.approx(2.50005e-4, rel=1e-12)
        assert v_im == pytest.approx(2.50005e-4, rel=1e-12)
        assert cov == pytest.approx(-1.50005e-4, rel=1e-12)

    @pytest.mark.parametrize("z_mag", [0.0, 1e-9, 1.7e-4])
    def test_zero_magnitude_keeps_the_block_regular(self, z_mag):
        # At a measured magnitude near 0 the angle carries no information:
        # the block's across variance stays at v_ang v_mag, its
        # determinant at v_mag^2 v_ang and more, where first order went
        # to 0 with z_mag.
        v_mag, v_ang = 9e-6, 9e-6
        rng = np.random.default_rng(11)
        for z_ang in rng.uniform(-math.pi, math.pi, 20):
            v_re, v_im, cov = polar_to_rect_variance(z_mag, v_mag, z_ang, v_ang)
            det = v_re * v_im - cov * cov
            assert det == pytest.approx(v_mag * v_ang * (z_mag ** 2 + v_mag), rel=1e-6)
            assert det >= 0.999 * v_mag ** 2 * v_ang
            eig = np.linalg.eigvalsh([[v_re, cov], [cov, v_im]])
            assert eig[1] / eig[0] <= 1.001 / v_ang

    def test_blocks_stay_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z_mag = rng.uniform(0.1, 2.0)
            z_ang = rng.uniform(-math.pi, math.pi)
            v_mag = rng.uniform(1e-8, 1e-2)
            v_ang = rng.uniform(1e-8, 1e-2)
            v_re, v_im, cov = polar_to_rect_variance(z_mag, v_mag, z_ang, v_ang)
            assert v_re * v_im - cov * cov > 0.0

    def test_rejects_bad_variances(self):
        with pytest.raises(NonPositiveVariance):
            polar_to_rect_variance(1.0, 0.0, 0.0, 1e-4)


class TestMeasurement:
    def test_variance_must_be_positive(self):
        with pytest.raises(NonPositiveVariance):
            Measurement(K.V_MAG, (1,), 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_value_must_be_finite(self, value):
        with pytest.raises(InputError, match="not finite"):
            Measurement(K.V_MAG, (1,), value, 1e-4)
        with pytest.raises(InputError, match="not finite"):
            Measurement(K.V_ANG_PMU, (1,), value, 1e-4)

    def test_angle_values_normalized_at_load(self):
        m = Measurement(K.V_ANG_PMU, (1,), 3 * math.pi / 2, 1e-4)
        assert m.value == pytest.approx(-math.pi / 2)

    def test_branch_kind_needs_two_indices(self):
        with pytest.raises(InputError):
            Measurement(K.P_FLOW, (1,), 1.0, 1e-4)

    def test_bus_kind_needs_one_index(self):
        with pytest.raises(InputError):
            Measurement(K.V_MAG, (1, 2), 1.0, 1e-4)


class TestLocationColumns:
    @staticmethod
    def per_row(ats):
        """The (m, 2) array built row by row."""
        rows = [tuple(map(int, at)) for at in ats]
        return np.array([at if len(at) == 2 else (at[0], 0) for at in rows],
                        dtype=np.int64).reshape(-1, 2)

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, len(KINDS), 500)
        ats = [tuple(int(i) for i in rng.integers(1, 99, ARITY[c])) for c in codes]
        ats[::7] = [list(at) for at in ats[::7]]  # JSON-style lists
        ats[1::7] = [tuple(np.array(at)) for at in ats[1::7]]  # numpy integers
        assert np.array_equal(location_columns(codes, ats), self.per_row(ats))
        assert location_columns(codes[:0], []).shape == (0, 2)
        # a float, a bool and a string are no index, and the row is named
        for bad in (1.0, True, "1"):
            row = list(ats[3])
            row[-1] = bad
            with pytest.raises(InputError, match=re.escape(f"got {tuple(row)}")) as err:
                location_columns(codes, ats[:3] + [row] + ats[4:])
            assert f"{KINDS[codes[3]]} location indices must be integers" in str(err.value)

    def test_non_integer_placement_is_worded_as_such(self):
        codes = np.array([KINDS.index(K.V_MAG), KINDS.index(K.P_FLOW)])
        with pytest.raises(InputError, match=re.escape(
                "placement P_flow at [1, 1.7]: indices must be integers")):
            location_columns(codes, [(1,), (1, 1.7)], placement=True)
        with pytest.raises(InputError, match=re.escape(
                "placement P_flow at [1]: expected 2 index(es)")):
            location_columns(codes, [(1,), (1,)], placement=True)

    @pytest.mark.parametrize("ats, message", [
        ([(1, 2), (3, 4), (5,)], "P_flow expects 2 location index(es), got (5,)"),
        ([(1, 2), (3, 4), (5, 6, 7)], "expects 2 location index(es), got (5, 6, 7)"),
    ])
    def test_first_bad_row_is_named(self, ats, message):
        codes = np.full(3, KINDS.index(K.P_FLOW))
        with pytest.raises(InputError, match=re.escape(message)):
            location_columns(codes, ats)


class TestMeasurementSet:
    def test_row_order_is_input_order(self):
        doc = {"measurements": [
            {"kind": "V_mag", "at": [2], "value": 1.02, "variance": 1e-4},
            {"kind": "P_flow", "at": [1, 2], "value": 0.5, "variance": 1e-4},
            {"kind": "V_mag", "at": [1], "value": 0.99, "variance": 1e-4},
        ]}
        mset = measurements_from_dict(doc)
        assert [m.kind for m in mset] == [K.V_MAG, K.P_FLOW, K.V_MAG]
        assert list(mset.values()) == [1.02, 0.5, 0.99]

    def test_serialize_reload_round_trip_exact(self, tmp_path):
        rows = [
            Measurement(K.P_FLOW, (1, 2), 0.1 + 1e-13, 1e-4),
            Measurement(K.V_RE, (2,), 0.987654321012345, 2e-4),
            Measurement(K.V_IM, (2,), -0.00123456789012345, 3e-4),
        ]
        mset = MeasurementSet(rows, [Correlation((1, 2), -1e-5)])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(measurements_to_dict(mset)))
        again = load_measurements(path)
        assert [m.value for m in again] == [m.value for m in mset]
        assert [m.variance for m in again] == [m.variance for m in mset]
        assert again.correlations[0].cov == -1e-5
        # a second serialization is byte-identical
        assert json.dumps(measurements_to_dict(again)) == path.read_text()

    def test_unknown_kind_tag_rejected(self):
        with pytest.raises(InputError, match="kind"):
            measurements_from_dict({"measurements": [
                {"kind": "S_flow", "at": [1, 2], "value": 1.0, "variance": 1e-4},
            ]})

    def test_unknown_file_key_rejected(self):
        with pytest.raises(InputError, match="unknown measurement-file keys"):
            measurements_from_dict({"measurements": [], "meta": {}})

    def test_correlation_only_for_rect_phasors(self):
        rows = [
            Measurement(K.V_MAG, (1,), 1.0, 1e-4),
            Measurement(K.V_RE, (1,), 1.0, 1e-4),
        ]
        with pytest.raises(InputError, match="rectangular"):
            MeasurementSet(rows, [Correlation((0, 1), 1e-6)])

    @pytest.mark.parametrize("cov", [math.nan, math.inf])
    def test_correlation_cov_must_be_finite(self, cov):
        with pytest.raises(InputError, match="not finite"):
            measurements_from_dict({
                "measurements": [
                    {"kind": "V_re", "at": [1], "value": 1.0, "variance": 1e-4},
                    {"kind": "V_im", "at": [1], "value": 0.0, "variance": 1e-4},
                ],
                "correlations": [{"rows": [0, 1], "cov": cov}],
            })

    def test_correlation_rows_in_range(self):
        rows = [Measurement(K.V_RE, (1,), 1.0, 1e-4)]
        with pytest.raises(InputError, match="range"):
            MeasurementSet(rows, [Correlation((0, 3), 1e-6)])

    def test_location_validation_against_network(self, net3):
        mset = MeasurementSet([Measurement(K.P_FLOW, (1, 9), 0.0, 1e-4)])
        with pytest.raises(InputError, match="no branch"):
            mset.validate_against(net3)
        mset = MeasurementSet([Measurement(K.V_MAG, (7,), 1.0, 1e-4)])
        with pytest.raises(InputError, match="bus"):
            mset.validate_against(net3)


class TestCovarianceModel:
    def test_diagonal_inverse(self):
        cov = CovarianceModel(np.array([0.25, 4.0]))
        rinv = cov.inverse().toarray()
        assert np.allclose(rinv, np.diag([4.0, 0.25]))

    def test_block_inverse_matches_dense(self):
        cov = CovarianceModel(np.array([2e-4, 3e-4, 5e-4]),
                              blocks=[(0, 2, -1e-4)])
        dense = np.diag([2e-4, 3e-4, 5e-4])
        dense[0, 2] = dense[2, 0] = -1e-4
        assert np.allclose(cov.inverse().toarray(), np.linalg.inv(dense),
                           rtol=1e-12)

    def test_whitener_whitens(self):
        cov = CovarianceModel(np.array([2e-4, 3e-4, 5e-4]),
                              blocks=[(0, 2, -1e-4)])
        dense = np.diag([2e-4, 3e-4, 5e-4])
        dense[0, 2] = dense[2, 0] = -1e-4
        w = cov.whitener().toarray()
        assert np.allclose(w @ dense @ w.T, np.eye(3), atol=1e-12)

    def test_indefinite_block_rejected(self):
        with pytest.raises(NonPositiveVariance):
            CovarianceModel(np.array([1e-4, 1e-4]), blocks=[(0, 1, 2e-4)])

    def test_block_singular_to_rounding_rejected(self):
        # |rho| = 1 - 1e-17 rounds to 1: the determinant is noise
        with pytest.raises(NonPositiveVariance, match="not positive definite"):
            CovarianceModel(np.array([1e-4, 1e-4]), blocks=[(0, 1, 1e-4 * (1.0 - 1e-17))])
        # 1 - rho^2 = 1e-12 is far above rounding: near singular, kept as stated
        cov = CovarianceModel(np.array([1e-4, 1e-4]), blocks=[(0, 1, 1e-4 * math.sqrt(1.0 - 1e-12))])
        dense = np.array([[1e-4, cov.blocks[0][2]], [cov.blocks[0][2], 1e-4]])
        assert np.allclose(cov.inverse().toarray() @ dense, np.eye(2), atol=1e-3)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(NonPositiveVariance):
            CovarianceModel(np.array([1e-4, 1e-4]), blocks=[(0, 1, math.nan)])
        for bad in (math.nan, math.inf):
            with pytest.raises(NonPositiveVariance):
                CovarianceModel(np.array([1e-4, bad]))

    def test_matrices_match_per_row_reference_and_are_cached(self):
        rng = np.random.default_rng(4)
        variances = rng.uniform(1e-5, 1e-3, 9)
        blocks = [(7, 2, 1e-5), (0, 5, -2e-5), (3, 8, 0.0)]
        cov = CovarianceModel(variances, blocks)
        inverse = np.diag(1.0 / variances)
        whitener = np.diag(1.0 / np.sqrt(variances))
        for a, b, c in blocks:
            va, vb = variances[a], variances[b]
            det = va * vb - c * c
            inverse[a, a], inverse[b, b] = vb / det, va / det
            inverse[a, b] = inverse[b, a] = -c / det
            l11 = math.sqrt(va)
            l21 = c / l11
            l22 = math.sqrt(vb - l21 * l21)
            whitener[a, a], whitener[b, b] = 1.0 / l11, 1.0 / l22
            whitener[b, a] = -l21 / (l11 * l22)
        assert np.array_equal(cov.inverse().toarray(), inverse)
        assert np.array_equal(cov.whitener().toarray(), whitener)
        assert cov.inverse() is cov.inverse()
        assert cov.whitener() is cov.whitener()

    def test_row_in_two_blocks_rejected(self):
        with pytest.raises(InputError, match="row 1 appears in more than one"):
            CovarianceModel(np.array([1e-2, 1e-2, 1e-2]),
                            blocks=[(0, 1, 1e-4), (1, 2, 1e-4)])
        with pytest.raises(InputError, match="row 1 appears in more than one"):
            InversePattern(3, np.array([0, 1]), np.array([1, 2]))

    @pytest.mark.parametrize("blocks", [[], [(7, 2, 1e-5), (0, 5, -2e-5), (3, 8, 0.0)]])
    def test_inverse_on_a_pattern_matches_the_coo_build(self, blocks):
        # R^-1 filled on a pattern keeps the bits, index types included,
        # of a COO -> CSR build of its entries, also where a block's
        # covariance is exactly 0
        rng = np.random.default_rng(9)
        variances = rng.uniform(1e-5, 1e-3, 9)
        table = np.array(blocks, dtype=float).reshape(-1, 3)
        a, b, cov = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]
        va, vb = variances[a], variances[b]
        det = va * vb - cov * cov
        diag = 1.0 / variances
        diag[a], diag[b] = vb / det, va / det
        rows = np.concatenate([np.arange(9), a, b])
        cols = np.concatenate([np.arange(9), b, a])
        want = coo_matrix((np.concatenate([diag, -cov / det, -cov / det]), (rows, cols)),
                          shape=(9, 9)).tocsr()
        assert want.nnz == 9 + 2 * len(blocks)
        pattern = InversePattern(9, a, b)
        for model in (CovarianceModel(variances, blocks),
                      CovarianceModel.on_pattern(pattern, variances, cov)):
            got = model.inverse()
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # the numbers of another set on the same pattern, which they share
        other = CovarianceModel.on_pattern(pattern, 2.0 * variances, 2.0 * cov).inverse()
        assert np.shares_memory(other.indices, pattern.indices)
        assert np.array_equal(other.data, 0.5 * want.data)
        for array in (pattern.indptr, pattern.indices, pattern.source, pattern.a):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_checks_on_a_pattern_stay_per_model(self):
        pattern = InversePattern(2, np.array([0]), np.array([1]))
        with pytest.raises(NonPositiveVariance, match="diagonal must be positive"):
            CovarianceModel.on_pattern(pattern, np.array([1e-4, 0.0]), np.array([0.0]))
        with pytest.raises(NonPositiveVariance, match="rows \\(0, 1\\) is not positive"):
            CovarianceModel.on_pattern(pattern, np.array([1e-4, 1e-4]), np.array([2e-4]))
