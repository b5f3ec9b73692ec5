"""Per-layer metrics from the spans of a run's traced units.

Metrics are named after the module that defines a function, spans after
the module its caller resolves it in.  A layer that did no work in the
workload reports 0.
"""

from __future__ import annotations

import statistics

from chanident import profiles

TAP_COUNTS = (4, 6, 12)


def _taps(label: int) -> int:
    return profiles.load_profile(label).tap_count


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


def per_layer(tracer, traced_units, untraced_wall_s: float) -> dict:
    spans = tracer.spans
    children = tracer.children()
    records = tracer.named("pipeline.make_record")
    n_rec = len(records)
    rec_taps = [_taps(s.record[0]) for s in records]
    n_by_taps = {t: rec_taps.count(t) for t in TAP_COUNTS}

    def total(name, taps=None):
        return sum(s.dur for s in tracer.named(name)
                   if taps is None or (s.record and _taps(s.record[0]) == taps))

    out = {}

    def per_record(metric, span_name, by_taps=False):
        out[f"{metric}.ms_per_record"] = (_ms(_per(total(span_name), n_rec)), "ms")
        if by_taps:
            for t in TAP_COUNTS:
                out[f"{metric}.ms_per_record.taps{t}"] = (
                    _ms(_per(total(span_name, t), n_by_taps[t])), "ms")

    per_record("simulate.generate_fading", "pipeline.generate_fading", by_taps=True)
    per_record("simulate.apply_channel", "pipeline.apply_channel")
    per_record("simulate.add_awgn", "pipeline.add_awgn")
    per_record("modulation.random_frame", "pipeline.random_frame")
    per_record("bem.estimate_cir_windowed", "pipeline.estimate_cir_windowed", by_taps=True)
    dpss = tracer.named("bem.generate_dpss")
    out["slepian.generate_dpss.calls_per_record"] = (_per(len(dpss), n_rec), "count")
    out["slepian.generate_dpss.distinct_ratio"] = (
        _per(len({s.key for s in dpss}), len(dpss)), "ratio")
    per_record("features.build_ddpdp", "pipeline.build_ddpdp")

    durations = [_ms(s.dur) for s in records]
    self_times = [tracer.self_time(s, children) for s in records]
    child_sum = sum(c.dur for s in records for c in children.get(s.span_id, []))
    record_time = sum(s.dur for s in records)
    out["pipeline.make_record.ms_p50"] = (_quantile(durations, 0.5), "ms")
    out["pipeline.make_record.ms_p90"] = (_quantile(durations, 0.9), "ms")
    out["pipeline.make_record.samples"] = (n_rec, "count")
    out["pipeline.make_record.self_ms_per_record"] = (_ms(_per(sum(self_times), n_rec)), "ms")
    # Self time plus the children's own durations over the records' duration:
    # 100 % when child spans neither overlap nor escape their parent.
    out["pipeline.make_record.accounted_pct"] = (
        100.0 * _per(sum(self_times) + child_sum, record_time), "%")
    out["pipeline.make_record.fading_share_pct"] = (
        100.0 * _per(total("pipeline.generate_fading"), record_time), "%")
    out["pipeline.make_record.bem_share_pct"] = (
        100.0 * _per(total("pipeline.estimate_cir_windowed"), record_time), "%")

    written = sum(u.records for u in traced_units)
    n_read = sum(u.records_read for u in traced_units)
    classified = len(tracer.named("pipeline.classify"))
    out["pipeline.write_dataset.ms_per_record"] = (
        _ms(_per(total("pipeline.write_dataset"), written)), "ms")
    out["pipeline.read_dataset.ms_per_record"] = (
        _ms(_per(total("pipeline.read_dataset"), n_read)), "ms")
    out["pipeline.evaluate.ms_per_vector"] = (
        _ms(_per(total("pipeline.evaluate"), classified)), "ms")

    pools = tracer.named("pipeline.generate_records")
    pool_cpu = sum(s.children_cpu for s in pools)
    out["pipeline.pool.cpu_ms_per_record"] = (_ms(_per(pool_cpu, written)), "ms")
    out["pipeline.pool.cpu_per_wall"] = (
        _per(pool_cpu + sum(s.cpu for s in pools), sum(s.dur for s in pools))
        if pool_cpu else 0.0, "ratio")

    unit_wall = sum(u.wall_s for u in traced_units)
    out["process.cpu_per_wall"] = (_per(sum(u.cpu_s for u in traced_units), unit_wall), "ratio")

    trains = tracer.named("mlp.train")
    train_time = sum(s.dur for s in trains)
    steps = sum(u.steps for u in traced_units)
    out["mlp.train.epochs"] = (_per(sum(u.epochs for u in traced_units), len(traced_units)),
                               "count")
    out["mlp.train.steps"] = (_per(steps, len(traced_units)), "count")
    out["mlp.train.ms_per_step"] = (_ms(_per(train_time, steps)), "ms")
    out["mlp.train.cpu_per_wall"] = (_per(sum(s.cpu for s in trains), train_time), "ratio")
    out["mlp.train.unit_share_pct"] = (100.0 * _per(train_time, unit_wall), "%")
    out["mlp.classify.us_per_vector"] = (
        1e6 * _per(total("pipeline.classify"), classified), "us")
    out["mlp.save_mlp.ms"] = (_ms(_per(total("mlp.save_mlp"), len(traced_units))), "ms")
    out["mlp.load_mlp.ms"] = (_ms(_per(total("mlp.load_mlp"), len(traced_units))), "ms")

    traced_wall = statistics.median(u.wall_s for u in traced_units)
    out["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
