"""The re-encode image wrappers are lossless round trips around the
same decode -> resize -> stats pool, so each returns exactly the rows
of ``q_image_ops`` at the same ``n_rows``; the lossy JPEG wrapper keeps
its 40 dB PSNR bar and caption equality on every row."""

import pandas as pd
import pytest

from osm_replication_rust_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"
# 28 rows: every branch of the 4-way container and 7-way mixed-media
# round-robins, in one batch of every wrapper
N_ROWS = 28


def _df(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("image_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def image_ops_rows(ray_session):
    return _df(Q.q_image_ops(SF, n_rows=N_ROWS))


@pytest.mark.parametrize("name", ["png_ops", "container_ops", "webp_ops",
                                  "qoi_ops", "mixed_media_ops"])
def test_lossless_wrapper_equals_image_ops(image_ops_rows, name):
    got = _df(getattr(Q, f"q_{name}")(SF, n_rows=N_ROWS))
    assert len(got) == N_ROWS
    pd.testing.assert_frame_equal(got, image_ops_rows, check_exact=True)


def test_jpeg_psnr_meets_the_bar_on_every_row(ray_session):
    got = _df(Q.q_jpeg_psnr(SF, n_rows=N_ROWS))
    assert len(got) == N_ROWS
    assert got["psnr_ok"].all()
    assert got["caption_ok"].all()
