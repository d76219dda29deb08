"""Binarization, confusion counting, ratio metrics, and split evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from sarunet.data import (FrameSeries, WindowDataset, WindowSpec, make_windows,
                          synth_generate)
from sarunet.errors import UsageError
from sarunet.metrics import (REPORT_COLUMNS, ConfusionCounts, EvalSetup,
                             MetricValues, binarize, confusion, evaluate_setup,
                             metrics, render_report_table, write_report_csv)
from sarunet.model import ModelConfig, build, persistence_forward

from oracles import confusion_loops


class TestBinarize:
    def test_unit_conversion_boundary(self):
        # 5 raw units = 0.05 mm per 5 min = 0.6 mm/h -> rain;
        # 4 raw units = 0.48 mm/h -> dry; the default scale 1.0 reads raw units
        arr = np.array([5.0, 4.0]).reshape(1, 1, 1, 2)
        out = binarize(arr, "raw")
        np.testing.assert_array_equal(out.ravel(), [1, 0])

    def test_normalized_values_rescaled_first(self):
        # scale 10: normalized 0.5 -> raw 5 -> rain
        arr = np.array([0.5, 0.4]).reshape(1, 1, 1, 2)
        out = binarize(arr, "raw", scale=10.0)
        np.testing.assert_array_equal(out.ravel(), [1, 0])

    def test_all_zero_image(self):
        assert binarize(np.zeros((1, 1, 4, 4)), "raw").sum() == 0

    def test_zero_threshold_marks_positive_pixels(self):
        arr = np.array([0.0, 1e-6, 2.0]).reshape(1, 1, 1, 3)
        out = binarize(arr, "raw", threshold_mm_per_h=0.0)
        # 0.0 rate >= 0.0 threshold is rain under the >= convention, so use
        # the documented strict reading: every strictly positive pixel maps
        # to 1 and zero pixels also satisfy >= 0. Check positives only.
        assert out.ravel()[1] == 1 and out.ravel()[2] == 1

    def test_binary_unit_thresholds_directly(self):
        arr = np.array([0.49, 0.51]).reshape(1, 1, 1, 2)
        np.testing.assert_array_equal(binarize(arr, "binary").ravel(), [0, 1])

    def test_missing_unit_metadata(self):
        with pytest.raises(UsageError):
            binarize(np.zeros((1, 1, 2, 2)), None)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        arr = rng.random((1, 1, 16, 16)) * 10
        prev = None
        for thr in (0.0, 0.25, 0.5, 1.0, 5.0):
            cur = binarize(arr, "raw", threshold_mm_per_h=thr)
            if prev is not None:
                assert (cur <= prev).all()  # recall can only fall
            prev = cur


class TestConfusion:
    def test_perfect_prediction(self):
        t = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        c = confusion(t, t)
        m = metrics(c)
        assert (c.fp, c.fn) == (0, 0)
        assert (m.precision, m.recall, m.accuracy, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_counted_two_by_two(self):
        pred = np.ones((2, 2), dtype=np.uint8)
        target = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        c = confusion(pred, target)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 2, 0, 0)
        m = metrics(c)
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == 0.5

    def test_random_pairs_match_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = (rng.random((32, 32)) < 0.5).astype(np.uint8)
        target = (rng.random((32, 32)) < 0.5).astype(np.uint8)
        c = confusion(pred, target)
        assert (c.tp, c.tn, c.fp, c.fn) == confusion_loops(pred, target)

    def test_non_binary_rejected(self):
        with pytest.raises(UsageError):
            confusion(np.array([0.5]), np.array([1.0]))

    def test_zero_denominator_reports_zero(self):
        m = metrics(ConfusionCounts(tp=0, tn=4, fp=0, fn=0))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.accuracy == 1.0

    def test_identity_always_accuracy_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = (rng.random(50) < rng.random()).astype(np.uint8)
            assert metrics(confusion(x, x)).accuracy == 1.0


def _tiny_eval_data(seed=0):
    series = synth_generate(seed=seed, n_frames=30, height=32, width=32)
    wins = make_windows(series, WindowSpec(3, (2,)))
    scale = float(series.frames.max())
    return WindowDataset(series, wins, scale), scale


def _setup(name, scale, leads=(10,)):
    return EvalSetup(model_name=name, input_minutes=15, lead_minutes=leads,
                     unit="raw", scale=scale, interval_minutes=5)


class TestEvaluateSetup:
    def test_persistence_on_frozen_series_is_perfect(self):
        series = synth_generate(seed=3, n_frames=12, height=32, width=32,
                                wind=(0.0, 0.0), growth=1.0)
        wins = make_windows(series, WindowSpec(3, (2,)))
        scale = float(series.frames.max())
        data = WindowDataset(series, wins, scale)
        report = evaluate_setup("persistence", data, _setup("persistence", scale))
        assert report.mse == 0.0
        assert report.values.accuracy == 1.0
        assert report.values.f1 == 1.0

    def test_micro_averaging_is_order_invariant(self):
        data, scale = _tiny_eval_data()
        setup = _setup("persistence", scale)
        r1 = evaluate_setup("persistence", data, setup)
        shuffled = WindowDataset(data.series, list(reversed(data.windows)), scale)
        r2 = evaluate_setup("persistence", shuffled, setup)
        assert r1.mse == r2.mse
        assert r1.values == r2.values

    def test_mse_invariant_under_duplicating_the_split(self):
        data, scale = _tiny_eval_data()
        setup = _setup("persistence", scale)
        doubled = WindowDataset(data.series, data.windows * 2, scale)
        r1 = evaluate_setup("persistence", data, setup)
        r2 = evaluate_setup("persistence", doubled, setup)
        assert r1.mse == r2.mse

    def test_per_lead_rows(self):
        series = synth_generate(seed=4, n_frames=20, height=32, width=32)
        wins = make_windows(series, WindowSpec(2, (1, 2, 3)))
        scale = float(series.frames.max())
        data = WindowDataset(series, wins, scale)
        r = evaluate_setup("persistence", data, _setup("persistence", scale,
                                                       leads=(5, 10, 15)))
        assert [ls.lead_minutes for ls in r.per_lead] == [5, 10, 15]
        combined = sum(ls.mse for ls in r.per_lead) / 3
        assert combined == pytest.approx(r.mse, rel=1e-12)


def per_lead_reference(predict, data, setup, batch_size):
    """The accumulation ``evaluate_setup`` ran lead by lead: per batch, each
    sample's float64 squared-error sum over all leads; per lead, each
    sample's sum over that lead's plane and ``confusion`` of the lead's
    binarized planes. Returns (mse, per-lead mses, per-lead counts)."""
    n_leads = len(setup.lead_minutes)
    parts, lead_parts = [], [[] for _ in range(n_leads)]
    counts = [np.zeros(4, dtype=np.int64) for _ in range(n_leads)]   # tp, tn, fp, fn
    kw = dict(scale=setup.scale, interval_minutes=setup.interval_minutes)

    def sample_sums(pred, target):
        diff = pred.astype(np.float64) - target.astype(np.float64)
        return [float(s.sum()) for s in diff * diff]

    for lo in range(0, len(data), batch_size):
        batch = data.batch(range(lo, min(lo + batch_size, len(data))))
        pred, target = predict(batch.inputs).data, batch.targets.data
        parts += sample_sums(pred, target)
        pbin, tbin = binarize(pred, setup.unit, **kw), binarize(target, setup.unit, **kw)
        for k in range(n_leads):
            lead_parts[k] += sample_sums(pred[:, k], target[:, k])
            counts[k] += dataclasses.astuple(confusion(pbin[:, k], tbin[:, k]))
    return (math.fsum(parts) / (len(parts) * pred[0].size),
            [math.fsum(p) / (len(p) * pred[0, 0].size) for p in lead_parts],
            [ConfusionCounts(*c.tolist()) for c in counts])


@pytest.mark.parametrize("unit,offsets", [("raw", (2,)), ("binary", (1, 2, 3, 4, 5, 6))],
                         ids=["one-lead", "six-leads"])
@pytest.mark.parametrize("kind", ["persistence", "model"])
def test_one_pass_scoring_is_bitwise_the_per_lead_loop(unit, offsets, kind):
    """Squaring and binarizing a batch once gives the bytes of the per-lead
    accumulation, over a split whose last batch is short."""
    series = synth_generate(seed=7, n_frames=24, height=32, width=48)
    if unit == "binary":
        series = FrameSeries((series.frames > 20).astype(np.float32), 5, "binary")
    data = WindowDataset(series, make_windows(series, WindowSpec(3, offsets)),
                         float(series.frames.max()))
    batch_size = 6
    assert len(data) % batch_size != 0
    setup = EvalSetup(model_name=kind, input_minutes=15, unit=unit, scale=data.scale,
                      lead_minutes=tuple(5 * o for o in offsets), interval_minutes=5)
    if kind == "persistence":
        predictor, predict = kind, lambda x: persistence_forward(x, len(offsets))
    else:
        predictor = build(ModelConfig(in_channels=3, out_channels=len(offsets),
                                      base_channels=2, cbam_reduction=2), seed=1)
        predict = lambda x: predictor.forward(x, train=False)[0]   # noqa: E731
    report = evaluate_setup(predictor, data, setup, batch_size=batch_size)
    mse, lead_mses, lead_counts = per_lead_reference(predict, data, setup, batch_size)
    total = ConfusionCounts(*np.sum([dataclasses.astuple(c) for c in lead_counts], axis=0).tolist())
    assert 0 < total.tp < total.total
    assert report.mse == mse and report.values == metrics(total)
    assert [ls.mse for ls in report.per_lead] == lead_mses
    assert [ls.values for ls in report.per_lead] == [metrics(c) for c in lead_counts]


class TestReportRendering:
    def _reports(self):
        data, scale = _tiny_eval_data()
        rows = []
        for name in ("sar-unet", "persistence", "smaat-config"):
            rows.append(evaluate_setup("persistence", data, _setup(name, scale)))
        return rows

    def test_csv_columns_and_determinism(self, tmp_path):
        reports = self._reports()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, reports)
        write_report_csv(p2, reports)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(REPORT_COLUMNS)
        assert header == "model,mse,precision,recall,accuracy,f1"

    def test_text_table_contains_columns_and_markers(self):
        txt = render_report_table(self._reports())
        for col in ("MSE", "Precision", "Recall", "Accuracy", "F1 score"):
            assert col in txt
        # three scores of one predictor tie in every column, so all are marked
        assert _table_marks(txt) == {name: [True] * 5
                                     for name in ("sar-unet", "persistence", "smaat-config")}
        assert "normalization scale" in txt


def _table_marks(table):
    """{model: [marked?] for MSE, precision, recall, accuracy, F1} from the
    rows of a rendered table (above the blank line before the footer)."""
    rows = table.split("\n\n")[0].splitlines()[2:]
    return {f[4]: [cell.endswith("*") for cell in f[5:]] for f in map(str.split, rows)}


class TestReportMarkers:
    """``*`` marks the best value of each column: the lowest MSE and the
    highest precision, recall, accuracy and F1; a tie marks every row that
    holds it, and a table of one row marks nothing."""

    def _report(self, name, mse, *values):
        data, scale = _tiny_eval_data()
        r = evaluate_setup("persistence", data, _setup(name, scale))
        return dataclasses.replace(r, mse=mse, values=MetricValues(*values))

    def test_one_report_has_no_marker(self):
        table = render_report_table([self._report("persistence", 0.1, 0.5, 0.4, 0.9, 0.3)])
        assert _table_marks(table) == {"persistence": [False] * 5}

    def test_two_reports_mark_the_best_of_each_column(self):
        reports = [self._report("persistence", 0.1, 0.5, 0.4, 0.9, 0.3),
                   self._report("sar-unet", 0.2, 0.4, 0.6, 0.8, 0.35)]
        assert _table_marks(render_report_table(reports)) == {
            "persistence": [True, True, False, True, False],
            "sar-unet": [False, False, True, False, True]}

    def test_a_tie_marks_both_rows(self):
        reports = [self._report("persistence", 0.2, 0.5, 0.4, 0.9, 0.3),
                   self._report("sar-unet", 0.1, 0.5, 0.4, 0.9, 0.3)]
        assert _table_marks(render_report_table(reports)) == {
            "persistence": [False, True, True, True, True],
            "sar-unet": [True, True, True, True, True]}
