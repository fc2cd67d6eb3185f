//! The metric catalogue — names and units exactly as `BENCHMARK.json`
//! lists them — and the derivation of per-layer metrics from a trace.

use crate::out::Metric;
use crate::stats;
use crate::trace::Tracer;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("pgraph.json.parse_ms", "ms"),
    ("pgraph.json.graph_from_value_ms", "ms"),
    ("pgraph.json.decode_mb_per_s", "MB/s"),
    ("pgraph.json.delta_decode_us", "us"),
    ("pgraph.columnar.freeze_ms", "ms"),
    ("pgraph.snapshot.open_us", "us"),
    ("pgraph.snapshot.thaw_ms", "ms"),
    ("core.pgschema.parse_us", "us"),
    ("core.indexed.validate_ms", "ms"),
    ("core.indexed.kernels_ms", "ms"),
    ("core.incremental.seed_ms", "ms"),
    ("core.incremental.apply_us", "us"),
    ("core.incremental.rechecked_ratio", "ratio"),
    ("core.incremental.outstanding_violations", "count"),
    ("core.report.encode_us", "us"),
    ("core.report.bytes", "bytes"),
    ("store.append_us", "us"),
    ("store.append_nosync_us", "us"),
    ("store.fsync_us", "us"),
    ("store.record_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.compaction_ms", "ms"),
    ("store.compaction_bytes", "bytes"),
    ("store.compactions", "count"),
    ("server.healthz_rtt_us", "us"),
    ("server.self_us.delta", "us"),
    ("server.self_us.report", "us"),
    ("server.wal_append_p50_us", "us"),
    ("server.wakeups_per_op", "count"),
    ("wake_p50_ms", "ms"),
    ("storage_bytes_per_op", "bytes"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_us", "us"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Per-layer values measured outside the in-process spans: over HTTP,
/// scraped from `/metrics`, or from `/proc`.
#[derive(Debug, Clone, Default)]
pub struct Outside {
    /// Median `GET /healthz` round trip (µs).
    pub healthz_rtt_us: f64,
    /// Round trip minus the replayed in-process time of a delta (µs): a
    /// derived estimate of the server's own cost.
    pub self_us_delta: f64,
    /// The same for a report read (µs).
    pub self_us_report: f64,
    /// Median WAL append from the daemon's histogram (bucket bound, µs).
    pub wal_append_p50_us: f64,
    /// Productive reactor wakeups per completed request.
    pub wakeups_per_op: f64,
    /// Median first-delta latency to a dormant session (ms).
    pub wake_p50_ms: f64,
    /// Storage bytes written by the daemon per acked delta.
    pub storage_bytes_per_op: f64,
    /// Auto-compactions the daemon ran during the measured phase.
    pub compactions: f64,
    /// Failed ops over attempted ops.
    pub failed_ratio: f64,
    /// Median traced op minus median untraced op, less the extra probe
    /// calls only a traced op makes (µs).
    pub overhead_us: f64,
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

/// Derives every [`PER_LAYER`] metric from the spans in `t` and the
/// values in `x`.
pub fn per_layer(t: &Tracer, x: &Outside) -> Vec<Metric> {
    let med = |name: &str| t.median_us(name);
    let work_med = |name: &str| stats::median(&t.works(name));
    let parse_bytes: f64 = t.works("pgraph.json.parse").iter().sum();
    let decode_us: f64 = t
        .durations("pgraph.json.parse")
        .iter()
        .chain(t.durations("pgraph.json.graph_from_value").iter())
        .sum();
    let (rechecked, total) = t
        .spans()
        .iter()
        .filter(|s| s.name == "core.incremental.apply")
        .fold((0.0, 0.0), |(r, n), s| (r + s.work, n + s.of));
    let validate_us = med("core.indexed.validate");
    let freeze_us = med("pgraph.columnar.freeze");
    let append_us = med("store.append");
    let nosync_us = med("store.append_nosync");
    let values = [
        ms(med("pgraph.json.parse")),
        ms(med("pgraph.json.graph_from_value")),
        if decode_us > 0.0 {
            parse_bytes / decode_us
        } else {
            0.0
        },
        med("pgraph.json.delta_from_json"),
        ms(freeze_us),
        med("pgraph.snapshot.open"),
        ms(med("pgraph.snapshot.thaw")),
        med("core.pgschema.parse"),
        ms(validate_us),
        if validate_us > 0.0 {
            ms(validate_us - freeze_us)
        } else {
            0.0
        },
        ms(med("core.incremental.seed")),
        med("core.incremental.apply"),
        if total > 0.0 { rechecked / total } else { 0.0 },
        work_med("core.incremental.outstanding"),
        med("core.report.encode"),
        work_med("core.report.encode"),
        append_us,
        nosync_us,
        if append_us > 0.0 {
            append_us - nosync_us
        } else {
            0.0
        },
        work_med("store.append"),
        ms(med("store.open")),
        ms(med("store.compaction")),
        work_med("store.compaction"),
        x.compactions,
        x.healthz_rtt_us,
        x.self_us_delta,
        x.self_us_report,
        x.wal_append_p50_us,
        x.wakeups_per_op,
        x.wake_p50_ms,
        x.storage_bytes_per_op,
        x.failed_ratio,
        x.overhead_us,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn predictions_name_catalogued_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |p: &Json, key: &str| -> Vec<String> {
            p.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|n| n.as_str().unwrap().to_owned())
                .collect()
        };
        let predictions = doc.get("predictions").and_then(Json::as_array).unwrap();
        let mut covered = Vec::new();
        for p in predictions {
            for metric in names(p, "per_layer").iter().chain(&names(p, "moves")) {
                assert!(unit_of(metric).is_some(), "{metric} is not catalogued");
            }
            covered.extend(names(p, "per_layer"));
            for target in names(p, "on").iter().chain(&names(p, "little_effect_on")) {
                let (workload, metric) = target.split_once(':').unwrap_or((target, "ops_per_s"));
                assert!(crate::run::WORKLOADS.contains(&workload), "{workload}");
                assert!(unit_of(metric).is_some(), "{metric}");
            }
        }
        // Every layer metric has a prediction; the rest are run-level.
        for (name, _) in PER_LAYER {
            let run_level = ["wake_p50_ms", "storage_bytes_per_op", "failed_ratio"];
            if !name.starts_with("trace.") && !run_level.contains(&name) {
                assert!(
                    covered.iter().any(|c| c == name),
                    "{name} has no prediction"
                );
            }
        }
    }

    #[test]
    fn idle_layers_report_zero() {
        let t = Tracer::new(true);
        let m = per_layer(&t, &Outside::default());
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().all(|m| m.value == 0.0));
    }
}
