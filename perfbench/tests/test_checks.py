import numpy as np
import pytest

import checks
from repro.apps.fields import nicam_like_variables
from repro.ckpt.temporal import TemporalEngine
from repro.config import CompressionConfig, TemporalConfig
from repro.core.pipeline import WaveletCompressor
from repro.core.wavelet import wavelet_forward

LEVELS = CompressionConfig().levels
SHAPE = (68, 41, 2)  # odd axes exercise the carried last element


@pytest.fixture(scope="module")
def field():
    return nicam_like_variables(SHAPE, 7)["temperature"]


@pytest.fixture(scope="module")
def restored(field):
    return WaveletCompressor(CompressionConfig()).roundtrip(field)[0]


def test_numpy_lowband_matches_the_library_transform(field):
    coeffs, applied = wavelet_forward(field, LEVELS, "haar")
    low = checks.haar_lowband(field, applied)
    region = tuple(slice(0, n) for n in low.shape)
    np.testing.assert_allclose(coeffs[region], low, rtol=1e-12)


def lowband(x):
    return checks.haar_lowband(x, LEVELS)


def test_lossy_restore_passes_every_check(field, restored):
    assert checks.check_lowband("t", lowband(field), restored, LEVELS) is None
    assert 0 < checks.mean_rel_err(field, restored) * 100 <= checks.MAX_MEAN_REL_ERR_PCT


def test_lowband_check_fires_on_a_shifted_block(field, restored):
    damaged = restored.copy()
    damaged[8:16, 8:16, :] += 0.5
    assert "differs" in checks.check_lowband("t", lowband(field), damaged, LEVELS)


def test_lowband_check_fires_on_a_wrong_shape(field, restored):
    assert "shape" in checks.check_lowband("t", lowband(field), restored[:-9], LEVELS)


def test_lowband_check_ignores_pure_high_band_error(field):
    # a +-eps checkerboard along axis 0 lives only in the high bands
    sign = np.where(np.arange(SHAPE[0]) % 2 == 0, 1.0, -1.0)[:, None, None]
    noisy = field.copy()
    noisy[: SHAPE[0] // 2 * 2] += 1e-3 * sign[: SHAPE[0] // 2 * 2]
    assert checks.check_lowband("t", lowband(field), noisy, LEVELS) is None


def test_rate_and_error_bands_fire():
    assert checks.check_band("stored_ratio", 0.18, *checks.RATIO_BAND) is None
    assert checks.check_band("stored_ratio", 0.35, *checks.RATIO_BAND)
    assert checks.check_band("mean_rel_err_pct", 2.0, 0.0, checks.MAX_MEAN_REL_ERR_PCT)


def test_mean_rel_err_is_paper_eq6():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    y = np.array([0.0, 1.5, 2.0, 3.0])
    assert checks.mean_rel_err(x, y) == pytest.approx((0.5 + 1.0) / 4 / 4.0)


def test_error_bound_check_passes_a_temporal_restore_and_fires_on_damage(field):
    cfg = TemporalConfig()
    engine = TemporalEngine(cfg)
    encoded = engine.encode("t", field, 0)
    recon = WaveletCompressor.decompress(encoded.blob)
    bound = cfg.error_bound * (1 + cfg.drift_slack)
    assert checks.check_error_bound("t", field, recon, bound) is None
    damaged = recon.copy()
    damaged[3, 4, 1] += 2 * cfg.error_bound
    assert "exceeds bound" in checks.check_error_bound("t", field, damaged, bound)


def test_identity_check_fires_on_a_flipped_byte_and_a_missing_blob():
    sent = {"a": b"\x00\x01\x02", "b": b"xyz"}
    assert checks.check_identical("s", sent, dict(sent)) is None
    flipped = {"a": b"\x00\x01\x03", "b": b"xyz"}
    assert "differs" in checks.check_identical("s", sent, flipped)
    assert "names" in checks.check_identical("s", sent, {"a": sent["a"]})


def test_shape_check_fires_on_a_wrong_shape():
    assert checks.check_shape("s", np.zeros((2, 3)), (2, 3)) is None
    assert checks.check_shape("s", np.zeros((3, 2)), (2, 3))
