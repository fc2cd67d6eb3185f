//! One-line JSON output: the result line the benchmark ends with, the
//! result records it keeps, and the trace files.

/// Escapes `s` as a JSON string literal (the daemon's own escaper).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    pg_server::http::push_json_string(&mut out, s);
    out
}

/// A JSON number with all its digits; non-finite values (which a
/// measurement never produces) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A compact JSON object built member by member, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    members: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a member whose value is already JSON text.
    pub fn raw(mut self, key: &str, json: impl Into<String>) -> Obj {
        self.members.push((key.to_owned(), json.into()));
        self
    }

    /// Adds a number member.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, json_number(v))
    }

    /// Adds a whole-number member.
    pub fn int(self, key: &str, v: u64) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a string member.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, json_string(v))
    }

    /// Adds a boolean member.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a nested object member.
    pub fn obj(self, key: &str, v: Obj) -> Obj {
        let text = v.render();
        self.raw(key, text)
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.members.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Renders `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_obj(metrics: &[Metric]) -> Obj {
    metrics.iter().fold(Obj::new(), |o, m| {
        o.obj(
            &m.name,
            Obj::new().num("value", m.value).str("unit", m.unit),
        )
    })
}

/// Reads back what [`metrics_obj`] rendered, with units from the
/// metric catalogue.
pub fn parse_metrics(doc: &pgraph::json::Json) -> Vec<Metric> {
    let pgraph::json::Json::Object(members) = doc else {
        return Vec::new();
    };
    members
        .iter()
        .filter_map(|(name, m)| {
            let unit = crate::metrics::unit_of(name)?;
            Some(Metric {
                name: name.clone(),
                value: number(m.get("value")?)?,
                unit,
            })
        })
        .collect()
}

/// A JSON number as `f64`.
pub fn number(v: &pgraph::json::Json) -> Option<f64> {
    match v {
        pgraph::json::Json::Int(i) => Some(*i as f64),
        pgraph::json::Json::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_on_one_line_with_escapes() {
        let o = Obj::new()
            .bool("correct", true)
            .int("attempted", 3)
            .str("s", "a\"b\n")
            .num("x", 1.25)
            .obj("m", Obj::new().num("nan", f64::NAN));
        assert_eq!(
            o.render(),
            "{\"correct\": true, \"attempted\": 3, \"s\": \"a\\\"b\\n\", \"x\": 1.25, \
             \"m\": {\"nan\": null}}"
        );
        let doc = pgraph::json::Json::parse(&o.render()).unwrap();
        assert_eq!(doc.get("s").and_then(|s| s.as_str()), Some("a\"b\n"));
    }
}
