//! In-process calls into each layer's public functions, wrapped in
//! spans. The bulk workload runs these as its op; the durable workload
//! replays its requests through them in the traced run, calling what the
//! daemon's handlers call.

use std::hint::black_box;

use pg_schema::{validate, Engine, IncrementalEngine, PgSchema, ValidationOptions};
use pgraph::json::{self, Json};
use pgraph::{ColumnarGraph, PropertyGraph};

use crate::trace::Tracer;

/// FNV-1a, to compare report bytes without keeping every report;
/// folded to 53 bits so it travels through JSON numbers exactly.
pub fn fnv(bytes: &[u8]) -> u64 {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    (h ^ (h >> 53)) & ((1 << 53) - 1)
}

/// Decodes a graph document: `Json::parse` then `graph_from_value`.
pub fn decode_graph(t: &mut Tracer, text: &str) -> Result<PropertyGraph, String> {
    let h = t.enter("pgraph.json.parse");
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    t.exit(h, text.len() as f64, 0.0);
    let graph = t.time("pgraph.json.graph_from_value", || {
        json::graph_from_value(&doc).map_err(|e| e.to_string())
    })?;
    Ok(graph)
}

/// Runs the indexed engine. When tracing, `ColumnarGraph::freeze` is
/// also called on its own afterwards, so the trace can split the
/// engine's time into freeze and kernels (`validate` freezes
/// internally). Afterwards, not before: the engine's own freeze then
/// runs as in an untraced op, and the extra one reuses the memory the
/// engine's freed, as the engine's reuses the previous op's.
pub fn validate_indexed(
    t: &mut Tracer,
    graph: &PropertyGraph,
    schema: &PgSchema,
    options: &ValidationOptions,
) -> pg_schema::ValidationReport {
    let report = t.time("core.indexed.validate", || validate(graph, schema, options));
    if t.is_on() {
        t.time("pgraph.columnar.freeze", || {
            black_box(ColumnarGraph::freeze(black_box(graph)));
        });
    }
    report
}

/// Encodes a report as the daemon and the CLI do.
pub fn encode(t: &mut Tracer, report: &pg_schema::ValidationReport) -> String {
    let h = t.enter("core.report.encode");
    let text = report.to_json();
    t.exit(h, text.len() as f64, 0.0);
    text
}

/// Parses an SDL schema.
pub fn parse_schema(t: &mut Tracer, sdl: &str) -> Result<PgSchema, String> {
    t.time("core.pgschema.parse", || {
        PgSchema::parse(sdl).map_err(|e| e.to_string())
    })
}

/// One op of the bulk workload, the CLI's `validate --json` path: JSON
/// text → graph → schema → indexed validation → report JSON.
pub fn bulk_op(t: &mut Tracer, text: &str, sdl: &str) -> Result<String, String> {
    let root = t.enter("op.validate-bulk");
    let graph = decode_graph(t, text)?;
    let schema = parse_schema(t, sdl)?;
    let options = ValidationOptions::with_engine(Engine::Indexed);
    let report = validate_indexed(t, &graph, &schema, &options);
    let out = encode(t, &report);
    t.exit(root, report.len() as f64, 0.0);
    Ok(out)
}

/// Seeds an incremental engine with the daemon's session options.
pub fn seed(
    t: &mut Tracer,
    graph: PropertyGraph,
    schema: PgSchema,
) -> IncrementalEngine<std::sync::Arc<PgSchema>> {
    let options = ValidationOptions::builder().collect_metrics(true).build();
    t.time("core.incremental.seed", || {
        IncrementalEngine::new(graph, std::sync::Arc::new(schema), &options)
    })
}

/// What `POST /sessions/{id}/deltas` does before logging: decode the
/// delta and apply it. Returns the decoded delta for the store replay.
pub fn apply_delta<S: std::borrow::Borrow<PgSchema>>(
    t: &mut Tracer,
    engine: &mut IncrementalEngine<S>,
    body: &str,
) -> Result<pgraph::GraphDelta, String> {
    let delta = t.time("pgraph.json.delta_from_json", || {
        json::delta_from_json(body).map_err(|e| e.to_string())
    })?;
    let h = t.enter("core.incremental.apply");
    let outcome = engine.apply(&delta).map_err(|e| e.to_string())?;
    t.exit(
        h,
        outcome.elements_rechecked as f64,
        outcome.elements_total as f64,
    );
    Ok(delta)
}

/// The report a session answers with after a delta or on
/// `GET …/report`, counting its outstanding violations.
pub fn session_report<S: std::borrow::Borrow<PgSchema>>(
    t: &mut Tracer,
    engine: &IncrementalEngine<S>,
) -> String {
    let report = engine.report();
    let h = t.enter("core.incremental.outstanding");
    t.exit(h, report.len() as f64, 0.0);
    encode(t, &report)
}

/// A daemon report body without its `"metrics"` member, which carries
/// timings and so differs run to run. Library reports built without
/// metrics compare byte for byte against it.
pub fn strip_metrics(body: &str) -> String {
    match body.find(", \"metrics\": {") {
        Some(i) => format!("{}}}", &body[..i]),
        None => body.to_owned(),
    }
}

/// Whether a report (or a delta response embedding one) conforms.
pub fn conforms(body: &str) -> Option<bool> {
    let i = body.find("\"conforms\": ")? + "\"conforms\": ".len();
    match &body[i..i + 4] {
        "true" => Some(true),
        "fals" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bulk_op_matches_library_validation() {
        let schema = gen::social_schema();
        let mut g = gen::social_graph(&schema, 30, 1);
        gen::inject_defects(&mut g, 12, &mut gen::Rng::new(1, 0));
        let text = json::to_json(&g);
        let expect = validate(
            &g,
            &schema,
            &ValidationOptions::with_engine(Engine::Indexed),
        );
        for on in [false, true] {
            let mut t = Tracer::new(on);
            let out = bulk_op(&mut t, &text, gen::social_sdl()).unwrap();
            assert_eq!(out, expect.to_json());
            assert_eq!(conforms(&out), Some(false));
            assert_eq!(t.spans().is_empty(), !on);
        }
    }

    #[test]
    fn metrics_are_stripped_from_daemon_reports() {
        let body = "{\"conforms\": true, \"violations\": [], \"rule_counts\": {}, \
                    \"metrics\": {\"engine\": \"x\"}}";
        assert_eq!(
            strip_metrics(body),
            "{\"conforms\": true, \"violations\": [], \"rule_counts\": {}}"
        );
        assert_eq!(strip_metrics("{}"), "{}");
        assert_eq!(conforms(body), Some(true));
        assert_eq!(conforms("{\"conforms\": false}"), Some(false));
    }
}
