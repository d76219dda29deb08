"""Dataset container, selection, windowing, normalization and the synthetic
generator."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarunet.data import (FrameSeries, WindowDataset, WindowSpec, load_nwds,
                          make_windows, normalization_scale, normalize_array,
                          save_nwds, select_rainy, split_bounds, synth_generate)
from sarunet.errors import DataError, SarunetError, UsageError
from sarunet.tensor import write_t4

from oracles import load_nwds_records, windows_bruteforce


def series_from(frames, interval=5, unit="raw"):
    return FrameSeries(np.asarray(frames, dtype=np.float32), interval, unit)


class TestFrameSeries:
    def test_negative_values_rejected(self):
        with pytest.raises(DataError):
            series_from(-np.ones((2, 4, 4)))

    def test_binary_values_enforced(self):
        with pytest.raises(DataError):
            series_from(np.full((1, 4, 4), 0.5), unit="binary")
        series_from(np.ones((1, 4, 4)), unit="binary")  # ok

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.inf])
    def test_binary_rejects_values_outside_zero_one(self, bad):
        frames = np.ones((2, 4, 4))
        frames[1, 2, 3] = bad
        with pytest.raises(DataError):
            series_from(frames, unit="binary")

    def test_binary_accepts_negative_zero(self):
        frames = np.zeros((2, 4, 4))
        frames[0, 0, 0] = -0.0
        frames[1] = 1.0
        assert np.signbit(series_from(frames, unit="binary").frames[0, 0, 0])


class TestSelectRainy:
    def test_all_zero_frame_excluded(self):
        s = series_from(np.zeros((1, 4, 4)))
        assert len(select_rainy(s)) == 0

    def test_exactly_half_included(self):
        frame = np.zeros((4, 4), np.float32)
        frame[:2] = 1.0  # exactly 50% of pixels strictly positive
        s = series_from(frame[None])
        assert list(select_rainy(s, 0.5)) == [0]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        frames = rng.random((10, 8, 8)).astype(np.float32)
        frames[frames < 0.4] = 0.0
        s = series_from(frames)
        got = set(select_rainy(s, 0.5).tolist())
        want = {i for i in range(10)
                if sum(1 for v in frames[i].ravel() if v > 0) / 64 >= 0.5}
        assert got == want

    def test_fraction_bounds(self):
        s = series_from(np.ones((1, 4, 4)))
        with pytest.raises(UsageError):
            select_rainy(s, 1.5)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_fraction(self, f1, f2):
        rng = np.random.default_rng(1)
        frames = rng.random((6, 6, 6)).astype(np.float32)
        frames[frames < 0.5] = 0.0
        s = series_from(frames)
        lo, hi = min(f1, f2), max(f1, f2)
        assert set(select_rainy(s, hi)) <= set(select_rainy(s, lo))


class TestMakeWindows:
    def test_worked_example(self):
        s = series_from(np.ones((30, 4, 4)))
        spec = WindowSpec(input_frames=6, target_offsets=(6,))
        wins = make_windows(s, spec, selected=range(30))
        assert len(wins) == 19
        assert wins[0] == ((0, 1, 2, 3, 4, 5), (11,))

    def test_nothing_selected_gives_zero_windows(self):
        s = series_from(np.ones((30, 4, 4)))
        wins = make_windows(s, WindowSpec(6, (6,)), selected=[])
        assert wins == []

    def test_random_mask_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        s = series_from(np.ones((40, 4, 4)))
        for _ in range(10):
            selected = [i for i in range(40) if rng.random() < 0.6]
            spec = WindowSpec(int(rng.integers(1, 5)),
                              tuple(sorted(set(rng.integers(1, 8, size=2).tolist()))))
            got = make_windows(s, spec, selected)
            want = windows_bruteforce(40, spec.input_frames, spec.target_offsets,
                                      selected)
            assert [(list(i), list(t)) for i, t in got] == want

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 40), in_f=st.integers(1, 6),
           offs=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
    def test_windows_stay_in_bounds(self, t, in_f, offs):
        s = series_from(np.ones((t, 4, 4)))
        wins = make_windows(s, WindowSpec(in_f, tuple(offs)))
        for inp, tgt in wins:
            assert 0 <= min(inp) and max(tgt) < t


class TestNormalization:
    def test_scale_and_midpoint(self):
        s = series_from(np.array([[[800.0, 400.0], [0.0, 1.0]]]))
        scale = normalization_scale(s)
        assert scale == 800.0
        assert normalize_array(np.float32(400.0), scale) == 0.5

    def test_binary_scale_is_one(self):
        s = series_from(np.ones((2, 4, 4)), unit="binary")
        assert normalization_scale(s) == 1.0

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        arr = rng.random((3, 5, 5)).astype(np.float32) * 123.0
        back = normalize_array(arr, 123.0) * np.float32(123.0)
        np.testing.assert_allclose(back, arr, rtol=1e-6)

    def test_zero_max_rejected(self):
        with pytest.raises(DataError):
            normalization_scale(series_from(np.zeros((2, 4, 4))))

    def test_scale_comes_from_training_split_only(self):
        rng = np.random.default_rng(5)
        frames = rng.random((20, 4, 4)).astype(np.float32) * 10
        (_, n_train), (_, n_val), _ = split_bounds(len(frames))
        train = series_from(frames[:n_train].copy())
        scale = normalization_scale(train)
        frames[n_train:n_train + n_val] *= 7.0
        frames[n_train + n_val:] *= 3.0
        assert normalization_scale(train) == scale


class TestSplit:
    def test_chronological_order_and_sizes(self):
        assert split_bounds(100) == [(0, 70), (70, 85), (85, 100)]

    def test_too_short_series(self):
        assert split_bounds(3) == [(0, 2), (2, 2), (2, 3)]     # val comes out empty


class TestSynthGenerate:
    def test_static_when_no_wind(self):
        s = synth_generate(seed=0, n_frames=5, height=32, width=32,
                           wind=(0.0, 0.0), growth=1.0)
        for t in range(1, 5):
            np.testing.assert_array_equal(s.frames[t], s.frames[0])

    def test_conserves_total_intensity_without_wind(self):
        s = synth_generate(seed=1, n_frames=6, height=48, width=48,
                           wind=(0.0, 0.0), growth=1.0)
        sums = s.frames.sum(axis=(1, 2))
        assert np.all(sums == sums[0])

    def test_single_blob_shifts_one_pixel(self):
        s = synth_generate(seed=2, n_frames=4, height=64, width=64,
                           n_blobs=1, wind=(1.0, 0.0), growth=1.0)
        for t in range(3):
            a = s.frames[t + 1][:, 1:]
            b = s.frames[t][:, :-1]
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_seeds_differ_and_same_seed_is_bitwise(self):
        a = synth_generate(seed=3, n_frames=3, height=32, width=32)
        b = synth_generate(seed=4, n_frames=3, height=32, width=32)
        c = synth_generate(seed=3, n_frames=3, height=32, width=32)
        assert not np.array_equal(a.frames, b.frames)
        assert a.frames.tobytes() == c.frames.tobytes()

    def test_interval_bound(self):
        with pytest.raises(UsageError, match="interval"):
            synth_generate(seed=0, n_frames=2, height=32, width=32, interval_minutes=0)

    def test_size_bound(self):
        with pytest.raises(UsageError):
            synth_generate(seed=0, n_frames=2, height=16, width=32)

    def test_background_holds_true_zeros(self):
        s = synth_generate(seed=5, n_frames=2, height=96, width=96, n_blobs=1)
        assert (s.frames == 0.0).any()


class TestNwds:
    def test_roundtrip_bitwise(self, tmp_path):
        s = synth_generate(seed=6, n_frames=4, height=32, width=32)
        p = tmp_path / "series.nwds"
        save_nwds(p, s)
        back = load_nwds(p)
        assert back.interval_minutes == s.interval_minutes
        assert back.unit == s.unit
        assert back.frames.tobytes() == s.frames.tobytes()

    def test_header_layout(self, tmp_path):
        s = series_from(np.ones((1, 4, 4)), interval=15, unit="binary")
        p = tmp_path / "one.nwds"
        save_nwds(p, s)
        raw = p.read_bytes()
        assert raw[:4] == b"NWDS"
        assert int.from_bytes(raw[4:8], "little") == 15
        assert raw[8] == 1  # binary unit code
        assert int.from_bytes(raw[9:17], "little") == 1

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nwds"
        p.write_bytes(b"JUNKJUNK")
        with pytest.raises(UsageError):
            load_nwds(p)


def write_records(path, frames, dtypes, unit_code=0, trailing=b""):
    """A hand-made NWDS file at a 15-minute interval: the header, then frame
    ``k`` as a T4v1 record of dtype ``dtypes[k]``, then ``trailing`` bytes."""
    with open(path, "wb") as f:
        f.write(b"NWDS" + struct.pack("<IBQ", 15, unit_code, len(frames)))
        for frame, dt in zip(frames, dtypes):
            write_t4(f, np.asarray(frame, dtype=dt)[None, None])
        f.write(trailing)


def outcome(load, path):
    """(error class, message) of a load that fails, else the series. Any
    other exception propagates and fails the test."""
    try:
        return load(path)
    except SarunetError as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def nwds_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("nwds")


class TestNwdsAgainstRecordOracle:
    """``load_nwds`` against the per-record reader in ``oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 40), h=st.integers(1, 17), w=st.integers(1, 17),
           dtype=st.sampled_from(["<f4", "<f8"]), unit=st.integers(0, 2),
           trailing=st.binary(max_size=64), seed=st.integers(0, 2**32 - 1))
    def test_valid_container_matches_oracle(self, nwds_dir, t, h, w, dtype, unit,
                                            trailing, seed):
        rng = np.random.default_rng(seed)
        if unit == 1:
            frames = rng.integers(0, 2, size=(t, h, w)).astype(dtype)
        else:
            frames = rng.exponential(50.0, size=(t, h, w)).astype(dtype)
            frames[rng.random((t, h, w)) < 0.3] = 0.0
        p = nwds_dir / "valid.nwds"
        write_records(p, frames, [dtype] * t, unit_code=unit, trailing=trailing)
        got, want = load_nwds(p), load_nwds_records(p)
        assert got.frames.dtype == want.frames.dtype == np.float32
        assert got.frames.shape == want.frames.shape == (t, h, w)
        assert got.frames.tobytes() == want.frames.tobytes()
        assert (got.interval_minutes, got.unit) == (want.interval_minutes, want.unit)

    H, W = 4, 5
    RECORD = 37 + H * W * 4          # T4v1 header, then a float32 payload

    def three_frames(self, path, k=None, shape=None, dtype="<f4"):
        """Three 4x5 float32 frames; frame ``k`` may take another shape or
        dtype. Returns the file's bytes and record ``k``'s offset."""
        frames = [np.full((self.H, self.W), i + 1.0) for i in range(3)]
        dtypes = ["<f4"] * 3
        if k is not None:
            frames[k] = np.full(shape or (self.H, self.W), 9.0)
            dtypes[k] = dtype
        write_records(path, frames, dtypes)
        return bytearray(path.read_bytes()), 17 + (k or 0) * self.RECORD

    def faulty_frames(self, path, fault, k):
        """:meth:`three_frames` with ``fault`` in record ``k``, written to
        ``path``; returns the file's bytes."""
        shape = {"taller": (self.H + 1, self.W), "shorter": (self.H - 1, self.W)}.get(fault)
        raw, off = self.three_frames(path, k, shape)
        if fault == "magic":
            raw[off:off + 4] = b"T5v1"
        elif fault == "dtype_code":
            raw[off + 36] = 7
        elif fault == "header_cut":
            raw = raw[:off + 10]
        elif fault == "payload_cut":
            raw = raw[:off + 37 + 5]
        path.write_bytes(bytes(raw))
        return raw

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("fault", [
        "magic", "dtype_code", "taller", "shorter", "header_cut", "payload_cut"])
    def test_faulty_record_raises_as_oracle(self, nwds_dir, fault, k):
        p = nwds_dir / "faulty.nwds"
        self.faulty_frames(p, fault, k)
        want = outcome(load_nwds_records, p)
        assert isinstance(want, tuple), "the oracle must reject the fault"
        assert outcome(load_nwds, p) == want

    @pytest.mark.parametrize("offset,patch", [
        (9, struct.pack("<Q", count)) for count in (0, 4, 2**30, 2**40, 2**62)
    ] + [(8, b"\x03")], ids=["count0", "count4", "count2^30", "count2^40", "count2^62",
                             "unit_code"])
    def test_bad_container_header_raises_as_oracle(self, nwds_dir, offset, patch):
        """A bad unit code or frame count raises as the oracle does; a count
        the file cannot hold raises the first missing record's own error
        instead of allocating for it."""
        p = nwds_dir / "header.nwds"
        raw, _ = self.three_frames(p)
        raw[offset:offset + len(patch)] = patch
        p.write_bytes(bytes(raw))
        want = outcome(load_nwds_records, p)
        assert want[0] is DataError
        assert outcome(load_nwds, p) == want

    @pytest.mark.parametrize("count", [4, 2**40], ids=["count4", "count2^40"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("fault", ["magic", "dtype_code", "taller", "shorter"])
    def test_faulty_record_before_a_count_past_the_file_raises_its_own_error(
            self, nwds_dir, fault, k, count):
        """A frame count past the end of the file does not hide a faulty
        record the file holds: the load raises that record's own error, the
        oracle's for the same file with its true count of three."""
        p = nwds_dir / "faulty_past.nwds"
        raw = self.faulty_frames(p, fault, k)
        want = outcome(load_nwds_records, p)
        assert isinstance(want, tuple), "the oracle must reject the fault"
        raw[9:17] = struct.pack("<Q", count)
        p.write_bytes(bytes(raw))
        assert outcome(load_nwds, p) == want

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_mixed_dtypes_are_data_error(self, nwds_dir, k):
        """A float64 record among float32 ones of the same shape loaded
        through the oracle, and is a DataError now: all records share one
        header."""
        p = nwds_dir / "mixed.nwds"
        self.three_frames(p, k, dtype="<f8")
        assert len(load_nwds_records(p)) == 3
        with pytest.raises(DataError, match=r"records of one shape and dtype"):
            load_nwds(p)

    def test_fewer_records_than_bytes_ignores_the_rest(self, nwds_dir):
        p = nwds_dir / "short_count.nwds"
        raw, _ = self.three_frames(p)
        raw[9:17] = struct.pack("<Q", 2)
        p.write_bytes(bytes(raw))
        got = load_nwds(p)
        assert got.frames.tobytes() == load_nwds_records(p).frames.tobytes()
        assert got.frames.shape == (2, self.H, self.W)


@pytest.mark.parametrize("shape,unit", [((200, 48, 40), "raw"),
                                        ((500, 32, 32), "binary")])
def test_load_peak_memory_is_about_one_frame_array(tmp_path, shape, unit):
    """``load_nwds`` allocates the frame array once; the binary check's
    boolean masks are the rest of its peak."""
    rng = np.random.default_rng(3)
    if unit == "binary":
        frames = (rng.random(shape) < 0.5).astype(np.float32)
    else:
        frames = rng.exponential(50.0, size=shape).astype(np.float32)
    p = tmp_path / "big.nwds"
    save_nwds(p, FrameSeries(frames, 15, unit))
    tracemalloc.start()
    try:
        series = load_nwds(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.frames.tobytes() == frames.tobytes()
    assert peak <= 1.6 * frames.nbytes, f"peak {peak / frames.nbytes:.2f}x the frame bytes"


def test_count_past_the_file_allocates_no_more_than_the_file(tmp_path):
    """A series whose frame count is patched to 2**40 reads every record the
    file holds, then raises the cut record's error: its peak stays at about
    one array of the file's frames, not of the count."""
    frames = np.random.default_rng(3).exponential(50.0, size=(200, 48, 40)).astype(np.float32)
    p = tmp_path / "past.nwds"
    save_nwds(p, FrameSeries(frames, 15, "raw"))
    raw = bytearray(p.read_bytes())
    raw[9:17] = struct.pack("<Q", 2**40)
    p.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            load_nwds(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * frames.nbytes, f"peak {peak / frames.nbytes:.2f}x the frame bytes"


def test_binary_load_peak_memory_holds_one_mask(tmp_path):
    """The binary check of a loaded series keeps one boolean mask alive at a
    time, a quarter of the float32 frame bytes."""
    frames = (np.random.default_rng(4).random((400, 64, 64)) < 0.3).astype(np.float32)
    p = tmp_path / "cloud.nwds"
    save_nwds(p, FrameSeries(frames, 15, "binary"))
    tracemalloc.start()
    try:
        series = load_nwds(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.frames.tobytes() == frames.tobytes()
    assert peak <= 1.35 * frames.nbytes, f"peak {peak / frames.nbytes:.2f}x the frame bytes"


class TestWindowDataset:
    def test_batch_shapes_and_normalization(self):
        s = synth_generate(seed=7, n_frames=20, height=32, width=32)
        wins = make_windows(s, WindowSpec(4, (1, 2)))
        scale = float(s.frames.max())
        ds = WindowDataset(s, wins, scale)
        batch = ds.batch([0, 3, 5])
        assert batch.inputs.shape == (3, 4, 32, 32)
        assert batch.targets.shape == (3, 2, 32, 32)
        assert batch.inputs.data.max() <= 1.0
        np.testing.assert_allclose(batch.inputs.data[0, 0],
                                   s.frames[wins[0][0][0]] / np.float32(scale),
                                   rtol=1e-6)
