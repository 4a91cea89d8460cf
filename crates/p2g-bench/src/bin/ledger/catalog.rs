//! What the ledger measures: the workloads, the end-to-end metrics, and
//! for every per-layer metric the end-to-end metric it should move and
//! the workloads whose account carries it. `BENCHMARK.json` at the repo
//! root is the contract with the driver; it is compiled in, and the unit
//! tests hold this table and that file to each other.

use crate::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

pub const MJPEG_BATCH: &str = "mjpeg-batch-cif";
pub const KMEANS_BATCH: &str = "kmeans-batch";
pub const STREAM_LOCAL: &str = "stream-local-64";
pub const SERVE_TCP: &str = "serve-tcp-64";
pub const WORKLOADS: [&str; 4] = [MJPEG_BATCH, KMEANS_BATCH, STREAM_LOCAL, SERVE_TCP];

const MJPEG: &[&str] = &[MJPEG_BATCH, STREAM_LOCAL, SERVE_TCP];
const BATCH: &[&str] = &[MJPEG_BATCH, KMEANS_BATCH];
const LOCAL: &[&str] = &[MJPEG_BATCH, KMEANS_BATCH, STREAM_LOCAL];
const STREAMS: &[&str] = &[STREAM_LOCAL, SERVE_TCP];
const ALL: &[&str] = &WORKLOADS;

/// `(name, unit, better)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("tax_ratio", "ratio", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one is expected to move.
    pub moves: &'static str,
    /// The workloads whose account reports it. Elsewhere the layer is not
    /// on the measured path: the driver line carries 0 and the ledger
    /// document leaves the metric out.
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

// One row per metric; kept one to a line so the table reads as a table.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    // Kernel bodies: the denominator of tax_ratio. A framework PR must
    // leave these still.
    layer("mjpeg.standalone_fps_cif", "1/s", "higher", "tax_ratio", &[MJPEG_BATCH]),
    layer("mjpeg.standalone_fps_64", "1/s", "higher", "tax_ratio", STREAMS),
    layer("kmeans.baseline_job_s", "s", "lower", "tax_ratio", &[KMEANS_BATCH]),
    layer("mjpeg.vlc_body_us", "us", "lower", "items_per_s", &[MJPEG_BATCH, STREAM_LOCAL]),
    // p2g-field.
    layer("field.store_block_ns", "ns", "lower", "tax_ratio", MJPEG),
    layer("field.fetch_block_ns", "ns", "lower", "tax_ratio", MJPEG),
    layer("field.store_plane_mb_per_s", "MB/s", "higher", "tax_ratio", MJPEG),
    layer("field.store_elem_ns", "ns", "lower", "items_per_s", &[KMEANS_BATCH]),
    layer("field.collect_age_ns", "ns", "lower", "latency_p95_ms", MJPEG),
    layer("field.bytes_stored_per_item", "B", "lower", "peak_rss_mb", LOCAL),
    // p2g-runtime::analyzer.
    layer("analyzer.event_ns_block", "ns", "lower", "tax_ratio", MJPEG),
    layer("analyzer.event_ns_elem", "ns", "lower", "items_per_s", &[KMEANS_BATCH]),
    layer("analyzer.events_per_item", "count", "lower", "tax_ratio", LOCAL),
    layer("analyzer.batches_per_item", "count", "lower", "tax_ratio", LOCAL),
    layer("analyzer.busy_share", "ratio", "lower", "items_per_s", LOCAL),
    layer("analyzer.queue_peak", "count", "lower", "latency_p95_ms", LOCAL),
    // p2g-runtime::ready + pool.
    layer("ready.push_pop_ns_1t", "ns", "lower", "items_per_s", ALL),
    layer("ready.push_pop_ns_2t", "ns", "lower", "latency_p95_ms", STREAMS),
    layer("ready.backlog_peak", "count", "lower", "latency_p95_ms", &[STREAM_LOCAL]),
    // p2g-runtime::node, per kernel from KernelStats.
    layer("node.dispatch_us.yDCT", "us", "lower", "tax_ratio", &[MJPEG_BATCH, STREAM_LOCAL]),
    layer("node.dispatch_us.assign", "us", "lower", "tax_ratio", &[KMEANS_BATCH]),
    layer("node.body_us.yDCT", "us", "lower", "tax_ratio", &[MJPEG_BATCH, STREAM_LOCAL]),
    layer("node.body_us.assign", "us", "lower", "tax_ratio", &[KMEANS_BATCH]),
    layer("node.instances_per_unit", "count", "higher", "tax_ratio", LOCAL),
    layer("node.dispatch_share", "ratio", "lower", "tax_ratio", LOCAL),
    layer("node.body_share", "ratio", "higher", "tax_ratio", LOCAL),
    layer("node.idle_share", "ratio", "lower", "items_per_s", LOCAL),
    layer("node.launch_ms", "ms", "lower", "setup_s", BATCH),
    // p2g-runtime::session.
    layer("session.open_ms", "ms", "lower", "setup_s", &[STREAM_LOCAL]),
    layer("session.submit_us_p50", "us", "lower", "latency_p50_ms", &[STREAM_LOCAL]),
    layer("session.admission_wait_share", "ratio", "lower", "items_per_s", &[STREAM_LOCAL]),
    layer("session.delivery_us_p50", "us", "lower", "latency_p50_ms", &[STREAM_LOCAL]),
    layer("session.resident_ages_peak", "count", "lower", "peak_rss_mb", STREAMS),
    layer("session.resident_bytes_peak", "B", "lower", "peak_rss_mb", STREAMS),
    // p2g-dist::wire.
    layer("wire.encode_us_64", "us", "lower", "latency_p50_ms", &[SERVE_TCP]),
    layer("wire.decode_us_64", "us", "lower", "latency_p50_ms", &[SERVE_TCP]),
    layer("wire.encode_mb_per_s_cif", "MB/s", "higher", "latency_p50_ms", &[SERVE_TCP]),
    // p2g-dist::tcp.
    layer("tcp.rtt_us_p50", "us", "lower", "latency_p50_ms", &[SERVE_TCP]),
    layer("tcp.rtt_us_p95", "us", "lower", "latency_p95_ms", &[SERVE_TCP]),
    layer("tcp.resend_ratio", "ratio", "lower", "latency_p95_ms", &[SERVE_TCP]),
    // p2g-dist::serve.
    layer("serve.open_ms", "ms", "lower", "setup_s", &[SERVE_TCP]),
    layer("serve.remote_overhead_ms_p50", "ms", "lower", "latency_p50_ms", &[SERVE_TCP]),
    layer("serve.vs_local_ratio", "ratio", "lower", "latency_p50_ms", &[SERVE_TCP]),
    layer("serve.credit_stall_share", "ratio", "lower", "items_per_s", &[SERVE_TCP]),
    layer("serve.rejected", "count", "lower", "latency_p95_ms", &[SERVE_TCP]),
    // The ledger's own generator and its tracing.
    layer("gen.late_ms_p95", "ms", "lower", "latency_p95_ms", STREAMS),
    layer("trace.overhead_ratio", "ratio", "higher", "items_per_s", ALL),
];

/// Whether the catalog puts per-layer metric `metric` on `workload`'s path.
pub fn on_path(metric: &str, workload: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|l| l.name == metric && l.on.contains(&workload))
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn metric_names_use_the_contract_charset() {
        let ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let all = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(WORKLOADS);
        for name in all {
            assert!(ok(name), "bad name {name:?}");
        }
        assert!(!ok("has space") && !ok(".dot-first") && !ok("slash/ed") && !ok(""));
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|l| l.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(WORKLOADS)
        {
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        let e2e = names(&doc, "end_to_end");
        assert_eq!(e2e, END_TO_END.map(|m| m.0));
        for (m, (_, unit, better)) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
            assert_eq!(m.get("better").unwrap().as_str(), Some(better));
        }
        // The bounds this host's repeatability supports (README,
        // Steadiness); the contract allows at most a quarter.
        let want = [0.25, 0.25, 0.20, 0.25, 0.25, 0.15];
        let got: Vec<f64> = bounds().into_iter().map(|(_, b)| b).collect();
        assert_eq!(got, want);

        // Every per-layer metric of the contract is in the table, names an
        // existing end-to-end metric and is carried by existing workloads.
        let per_layer = names(&doc, "per_layer");
        assert_eq!(
            per_layer,
            PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>()
        );
        for (m, l) in doc.get("per_layer").unwrap().as_arr().iter().zip(PER_LAYER) {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(l.unit), "{}", l.name);
            assert_eq!(
                m.get("better").unwrap().as_str(),
                Some(l.better),
                "{}",
                l.name
            );
            assert!(
                e2e.iter().any(|e| e == l.moves),
                "{} moves {}",
                l.name,
                l.moves
            );
            assert!(!l.on.is_empty());
            for w in l.on {
                assert!(WORKLOADS.contains(w), "{} on {w}", l.name);
            }
        }
    }
}
