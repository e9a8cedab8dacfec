import os
import stat

import numpy as np
import pytest

from asymlab.tensorio import (
    MAGIC,
    heatmap_rgb,
    load_json,
    load_tensor,
    save_csv,
    save_json,
    save_ppm,
    save_tensor,
)


def test_tensor_roundtrip_ranks(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(), (5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)]:
        arr = rng.normal(size=shape)
        p = tmp_path / f"t{len(shape)}.atns"
        save_tensor(p, arr)
        back = load_tensor(p)
        assert back.shape == arr.shape
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)


def test_tensor_preserves_exact_bits(tmp_path):
    arr = np.array([0.1, -0.0, np.pi, 1e-300, 1e300])
    p = tmp_path / "bits.atns"
    save_tensor(p, arr)
    assert load_tensor(p).tobytes() == arr.tobytes()


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "bad.atns"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError, match="not an ATNS"):
        load_tensor(p)


def test_tensor_bad_version(tmp_path):
    import struct
    p = tmp_path / "v9.atns"
    p.write_bytes(MAGIC + struct.pack("<HH", 9, 0) + bytes(8))
    with pytest.raises(ValueError, match="version"):
        load_tensor(p)


def test_tensor_truncation(tmp_path):
    good = tmp_path / "ok.atns"
    save_tensor(good, np.ones((3, 3)))
    raw = good.read_bytes()
    for cut in (6, 12, len(raw) - 8):
        bad = tmp_path / "cut.atns"
        bad.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_tensor(bad)
    # trailing garbage is also a size mismatch
    bad = tmp_path / "long.atns"
    bad.write_bytes(raw + bytes(8))
    with pytest.raises(ValueError, match="mismatch"):
        load_tensor(bad)


def test_ppm_roundtrip_u8_exact(tmp_path):
    rng = np.random.default_rng(1)
    levels = rng.integers(0, 256, size=(5, 7, 3))
    p = tmp_path / "img.ppm"
    save_ppm(p, levels.astype(float) / 255.0)
    # width before height, then the rows of RGB bytes
    assert p.read_bytes() == b"P6\n7 5\n255\n" + levels.astype(np.uint8).tobytes()


def test_ppm_clips_and_validates(tmp_path):
    p = tmp_path / "clip.ppm"
    save_ppm(p, np.stack([np.full((2, 2), v) for v in (7.0, -1.0, 0.5)], axis=-1))
    assert p.read_bytes() == b"P6\n2 2\n255\n" + bytes([255, 0, 128]) * 4
    with pytest.raises(ValueError):
        save_ppm(p, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        save_ppm(p, np.full((2, 2, 3), np.nan))


def test_heatmap_rgb():
    v = np.array([[0.0, 1.0], [2.0, 3.0]])
    img = heatmap_rgb(v)
    assert img.shape == (2, 2, 3)
    assert np.all(img >= 0) and np.all(img <= 1)
    # cold end is blue, hot end is red
    assert img[0, 0, 2] == 1.0 and img[0, 0, 0] == 0.0
    assert img[1, 1, 0] == 1.0 and img[1, 1, 2] == 0.0
    flat = heatmap_rgb(np.ones((3, 3)))
    assert np.all(np.isfinite(flat))


def test_json_roundtrip_and_csv(tmp_path):
    obj = {"b": [1, 2], "a": {"x": 0.5}}
    jp = tmp_path / "o.json"
    save_json(jp, obj)
    assert load_json(jp) == obj
    text = jp.read_text()
    assert text.index('"a"') < text.index('"b"')  # keys are sorted

    cp = tmp_path / "m.csv"
    save_csv(cp, ["run", "metric", "value"], [[0, "mse", 0.25], [1, "mse", 0.5]])
    lines = cp.read_text().splitlines()
    assert lines[0] == "run,metric,value"
    assert lines[1] == "0,mse,0.25"
    assert len(lines) == 3


def test_written_files_get_the_mode_open_gives(tmp_path):
    # the temporary file is made owner-only; the output it becomes must not be
    for umask in (0o022, 0o077, 0o002):
        old = os.umask(umask)
        try:
            save_json(tmp_path / f"r{umask:o}.json", {"k": 1})
            save_tensor(tmp_path / f"t{umask:o}.atns", np.ones(2))
            (tmp_path / f"plain{umask:o}").write_text("")
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / f"plain{umask:o}").stat().st_mode)
        for name in (f"r{umask:o}.json", f"t{umask:o}.atns"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want, name


def test_no_stray_temp_files(tmp_path):
    save_tensor(tmp_path / "a.atns", np.ones(3))
    save_json(tmp_path / "b.json", {"k": 1})
    save_ppm(tmp_path / "c.ppm", np.zeros((2, 2, 3)))
    save_csv(tmp_path / "d.csv", ["h"], [[1]])
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["a.atns", "b.json", "c.ppm", "d.csv"]
