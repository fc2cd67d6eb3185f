//! JSON interchange for Property Graphs.
//!
//! The format is deliberately simple and GraphQL-value-shaped:
//!
//! ```json
//! {
//!   "nodes": [ {"id": 0, "label": "User", "properties": {"login": "alice"}} ],
//!   "edges": [ {"id": 0, "label": "user", "source": 1, "target": 0,
//!               "properties": {"certainty": 0.9}} ]
//! }
//! ```
//!
//! Two lossy aspects are made explicit and controlled:
//!
//! * JSON has no `ID`/`Enum` kinds — they are encoded as tagged objects
//!   `{"$id": "..."}` / `{"$enum": "..."}` so decode(encode(g)) == g.
//! * Integers are kept exact: whole-number tokens parse as `i64`, and the
//!   printer always writes floats with a `.` or exponent so the
//!   `Int`/`Float` distinction survives a roundtrip.
//!
//! The reader/printer below is self-contained (no external JSON crate):
//! a recursive-descent parser over bytes and a two-space pretty printer.
//! The parsed tree type [`Json`] and the value-level codecs
//! ([`graph_to_value`]/[`graph_from_value`],
//! [`delta_to_value`]/[`delta_from_value`]) are public, so consumers that
//! embed graphs or deltas inside larger documents (the `pg-server` HTTP
//! bodies) reuse this machinery instead of parsing twice.
//!
//! Mutation logs ([`GraphDelta`]) share the machinery: a delta document is
//! `{"ops": [...]}` where each op is a tagged object such as
//! `{"op": "set-node-property", "node": 0, "name": "login", "value": "al"}`
//! — see [`delta_to_json`] / [`delta_from_json`]. Element ids in a delta
//! refer to the graph the delta will be applied to, i.e. the `id` fields
//! of a graph document written by [`to_json`].

use std::collections::BTreeMap;
use std::fmt;

use crate::delta::{DeltaOp, GraphDelta};
use crate::{EdgeId, NodeId, PropertyGraph, Value};

/// Errors raised while decoding a JSON graph document.
#[derive(Debug)]
pub enum JsonError {
    /// The document was not syntactically valid JSON / did not match the
    /// expected shape. The payload describes the problem and its byte
    /// offset.
    Parse(String),
    /// An edge referenced a node id that does not appear in `nodes`.
    DanglingEdge {
        /// The edge's position in the `edges` array.
        edge_index: usize,
        /// The missing node id.
        node: u32,
    },
    /// A property value used a JSON feature the Value model cannot hold
    /// (e.g. a nested object that is not an `$id`/`$enum` tag).
    BadValue(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse(e) => write!(f, "invalid graph JSON: {e}"),
            JsonError::DanglingEdge { edge_index, node } => {
                write!(f, "edge #{edge_index} references unknown node {node}")
            }
            JsonError::BadValue(msg) => write!(f, "unsupported property value: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Generic JSON tree
// ---------------------------------------------------------------------------

/// Parsed JSON value. Object member order is preserved.
///
/// This is the tree every (de)serializer in this module works over; it is
/// public so consumers with composite payloads — e.g. an HTTP body
/// `{"schema": "...", "graph": {...}}` — can parse once with
/// [`Json::parse`], pick members apart with [`Json::get`]/[`Json::as_str`],
/// and hand sub-trees to [`graph_from_value`] / [`delta_from_value`]
/// instead of re-implementing a JSON parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole-number token that fits `i64`.
    Int(i64),
    /// Any other numeric token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, with member order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).parse_document()
    }

    /// The value's JSON type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Member lookup on an object (`None` for missing keys and for
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => get(members, key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a whole-number token.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Pretty-prints with the module's canonical two-space indentation —
    /// the same layout [`to_json`] emits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        print_json(&mut out, self, 0);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl fmt::Display) -> JsonError {
        JsonError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}", b as char)))
        }
    }

    fn parse_document(mut self) -> Result<Json, JsonError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format_args!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format_args!("expected {word:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uHHHH\uLLLL.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("lone surrogate escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format_args!("bad escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
        if !is_float {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            // Whole number outside i64: degrade to float like serde_json's
            // lossy path.
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format_args!("bad number token {token:?}")))
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal, quotes included. The
/// one escaper every hand-built JSON writer in the workspace shares:
/// `"` and `\` are backslash-escaped, the control characters with a
/// short form use it (`\n`, `\r`, `\t`, `\b`, `\f`), the other C0
/// controls become `\u00XX`, and everything else is copied verbatim.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `f` so it re-parses as a float: Rust's shortest-roundtrip
/// `Display`, plus a forced `.0` when that prints a bare integer.
fn push_float(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "non-finite floats have no JSON form");
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn print_json(out: &mut String, v: &Json, indent: usize) {
    const STEP: usize = 2;
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => push_float(out, *f),
        Json::Str(s) => push_json_string(out, s),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (ix, item) in items.iter().enumerate() {
                if ix > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                print_json(out, item, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Json::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (ix, (k, val)) in members.iter().enumerate() {
                if ix > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent + STEP));
                push_json_string(out, k);
                out.push_str(": ");
                print_json(out, val, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Graph <-> JSON mapping
// ---------------------------------------------------------------------------

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => {
            if f.is_finite() {
                Json::Float(*f)
            } else {
                Json::Null
            }
        }
        Value::String(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Id(s) => Json::Object(vec![("$id".to_owned(), Json::Str(s.clone()))]),
        Value::Enum(s) => Json::Object(vec![("$enum".to_owned(), Json::Str(s.clone()))]),
        Value::List(items) => Json::Array(items.iter().map(value_to_json).collect()),
        Value::Null => Json::Null,
    }
}

fn value_from_json(v: &Json) -> Result<Value, JsonError> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::String(s.clone())),
        Json::Array(items) => Ok(Value::List(
            items
                .iter()
                .map(value_from_json)
                .collect::<Result<_, _>>()?,
        )),
        Json::Object(members) => {
            if members.len() == 1 {
                if let (key, Json::Str(s)) = &members[0] {
                    if key == "$id" {
                        return Ok(Value::Id(s.clone()));
                    }
                    if key == "$enum" {
                        return Ok(Value::Enum(s.clone()));
                    }
                }
            }
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            Err(JsonError::BadValue(format!(
                "objects other than $id/$enum tags are not property values: keys {keys:?}"
            )))
        }
    }
}

/// Field lookup in a parsed object (serde-style: unknown members are
/// ignored, missing required members are an error).
fn get<'j>(members: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u32(members: &[(String, Json)], key: &str, ctx: &str) -> Result<u32, JsonError> {
    match get(members, key) {
        Some(Json::Int(i)) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field {key:?} must be a u32, got {}",
            other.kind()
        ))),
        None => Err(JsonError::Parse(format!("{ctx}: missing field {key:?}"))),
    }
}

fn get_str<'j>(members: &'j [(String, Json)], key: &str, ctx: &str) -> Result<&'j str, JsonError> {
    match get(members, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field {key:?} must be a string, got {}",
            other.kind()
        ))),
        None => Err(JsonError::Parse(format!("{ctx}: missing field {key:?}"))),
    }
}

fn get_properties<'j>(
    members: &'j [(String, Json)],
    ctx: &str,
) -> Result<&'j [(String, Json)], JsonError> {
    match get(members, "properties") {
        Some(Json::Object(props)) => Ok(props),
        Some(other) => Err(JsonError::Parse(format!(
            "{ctx}: field \"properties\" must be an object, got {}",
            other.kind()
        ))),
        None => Ok(&[]),
    }
}

fn as_object<'j>(v: &'j Json, ctx: &str) -> Result<&'j [(String, Json)], JsonError> {
    match v {
        Json::Object(members) => Ok(members),
        other => Err(JsonError::Parse(format!(
            "{ctx}: expected an object, got {}",
            other.kind()
        ))),
    }
}

fn as_array<'j>(v: &'j Json, ctx: &str) -> Result<&'j [Json], JsonError> {
    match v {
        Json::Array(items) => Ok(items),
        other => Err(JsonError::Parse(format!(
            "{ctx}: expected an array, got {}",
            other.kind()
        ))),
    }
}

/// Serialises a graph to its canonical (pretty) JSON document.
///
/// Properties are emitted in sorted key order so the output is
/// deterministic regardless of insertion order.
pub fn to_json(g: &PropertyGraph) -> String {
    graph_to_value(g).to_string()
}

/// Builds the [`Json`] tree of a graph document — [`to_json`] without the
/// final rendering, for embedding a graph inside a larger payload.
pub fn graph_to_value(g: &PropertyGraph) -> Json {
    fn props_json<'a>(props: impl Iterator<Item = (&'a str, &'a Value)>) -> Json {
        let sorted: BTreeMap<&str, &Value> = props.collect();
        Json::Object(
            sorted
                .into_iter()
                .map(|(k, v)| (k.to_owned(), value_to_json(v)))
                .collect(),
        )
    }
    let nodes = Json::Array(
        g.nodes()
            .map(|n| {
                let mut members = vec![
                    ("id".to_owned(), Json::Int(n.id.index() as i64)),
                    ("label".to_owned(), Json::Str(n.label().to_owned())),
                ];
                let props = props_json(n.properties());
                if !matches!(&props, Json::Object(m) if m.is_empty()) {
                    members.push(("properties".to_owned(), props));
                }
                Json::Object(members)
            })
            .collect(),
    );
    let edges = Json::Array(
        g.edges()
            .map(|e| {
                let mut members = vec![
                    ("id".to_owned(), Json::Int(e.id.index() as i64)),
                    ("label".to_owned(), Json::Str(e.label().to_owned())),
                    ("source".to_owned(), Json::Int(e.source().index() as i64)),
                    ("target".to_owned(), Json::Int(e.target().index() as i64)),
                ];
                let props = props_json(e.properties());
                if !matches!(&props, Json::Object(m) if m.is_empty()) {
                    members.push(("properties".to_owned(), props));
                }
                Json::Object(members)
            })
            .collect(),
    );
    Json::Object(vec![
        ("nodes".to_owned(), nodes),
        ("edges".to_owned(), edges),
    ])
}

/// Parses a graph from its JSON document. Node ids in the document are
/// arbitrary distinct numbers; they are remapped to dense ids.
pub fn from_json(text: &str) -> Result<PropertyGraph, JsonError> {
    graph_from_value(&Json::parse(text)?)
}

/// Decodes a graph from an already-parsed [`Json`] tree — [`from_json`]
/// without the parsing step, for graphs embedded in a larger document.
pub fn graph_from_value(doc: &Json) -> Result<PropertyGraph, JsonError> {
    let root = as_object(doc, "document")?;
    let nodes = as_array(
        get(root, "nodes")
            .ok_or_else(|| JsonError::Parse("document: missing field \"nodes\"".into()))?,
        "nodes",
    )?;
    let edges = as_array(
        get(root, "edges")
            .ok_or_else(|| JsonError::Parse("document: missing field \"edges\"".into()))?,
        "edges",
    )?;

    let mut g = PropertyGraph::with_capacity(nodes.len(), edges.len());
    let mut remap = std::collections::HashMap::with_capacity(nodes.len());
    for (ix, n) in nodes.iter().enumerate() {
        let ctx = format!("node #{ix}");
        let members = as_object(n, &ctx)?;
        let doc_id = get_u32(members, "id", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let id = g.add_node(label.to_owned());
        remap.insert(doc_id, id);
        for (k, v) in get_properties(members, &ctx)? {
            g.set_node_property(id, k.clone(), value_from_json(v)?);
        }
    }
    for (ix, e) in edges.iter().enumerate() {
        let ctx = format!("edge #{ix}");
        let members = as_object(e, &ctx)?;
        let source = get_u32(members, "source", &ctx)?;
        let target = get_u32(members, "target", &ctx)?;
        let label = get_str(members, "label", &ctx)?;
        let src = *remap.get(&source).ok_or(JsonError::DanglingEdge {
            edge_index: ix,
            node: source,
        })?;
        let dst: NodeId = *remap.get(&target).ok_or(JsonError::DanglingEdge {
            edge_index: ix,
            node: target,
        })?;
        let eid = g.add_edge(src, dst, label.to_owned()).expect("remapped");
        for (k, v) in get_properties(members, &ctx)? {
            g.set_edge_property(eid, k.clone(), value_from_json(v)?);
        }
    }
    Ok(g)
}

// ---------------------------------------------------------------------------
// Delta <-> JSON mapping
// ---------------------------------------------------------------------------

fn op_to_json(op: &DeltaOp) -> Json {
    fn tag(name: &str) -> (String, Json) {
        ("op".to_owned(), Json::Str(name.to_owned()))
    }
    fn node(id: NodeId) -> (String, Json) {
        ("node".to_owned(), Json::Int(id.index() as i64))
    }
    fn edge(id: EdgeId) -> (String, Json) {
        ("edge".to_owned(), Json::Int(id.index() as i64))
    }
    fn label(l: &str) -> (String, Json) {
        ("label".to_owned(), Json::Str(l.to_owned()))
    }
    fn name(n: &str) -> (String, Json) {
        ("name".to_owned(), Json::Str(n.to_owned()))
    }
    Json::Object(match op {
        DeltaOp::AddNode { label: l } => vec![tag("add-node"), label(l)],
        DeltaOp::RemoveNode { node: n } => vec![tag("remove-node"), node(*n)],
        DeltaOp::AddEdge {
            source,
            target,
            label: l,
        } => vec![
            tag("add-edge"),
            ("source".to_owned(), Json::Int(source.index() as i64)),
            ("target".to_owned(), Json::Int(target.index() as i64)),
            label(l),
        ],
        DeltaOp::RemoveEdge { edge: e } => vec![tag("remove-edge"), edge(*e)],
        DeltaOp::SetNodeProperty {
            node: n,
            name: k,
            value,
        } => vec![
            tag("set-node-property"),
            node(*n),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveNodeProperty { node: n, name: k } => {
            vec![tag("remove-node-property"), node(*n), name(k)]
        }
        DeltaOp::SetEdgeProperty {
            edge: e,
            name: k,
            value,
        } => vec![
            tag("set-edge-property"),
            edge(*e),
            name(k),
            ("value".to_owned(), value_to_json(value)),
        ],
        DeltaOp::RemoveEdgeProperty { edge: e, name: k } => {
            vec![tag("remove-edge-property"), edge(*e), name(k)]
        }
        DeltaOp::SetNodeLabel { node: n, label: l } => {
            vec![tag("set-node-label"), node(*n), label(l)]
        }
    })
}

fn op_from_json(v: &Json, ctx: &str) -> Result<DeltaOp, JsonError> {
    let members = as_object(v, ctx)?;
    let tag = get_str(members, "op", ctx)?;
    let node = |key: &str| get_u32(members, key, ctx).map(|i| NodeId::from_index(i as usize));
    let edge = |key: &str| get_u32(members, key, ctx).map(|i| EdgeId::from_index(i as usize));
    let string = |key: &str| get_str(members, key, ctx).map(str::to_owned);
    let value = || {
        get(members, "value")
            .ok_or_else(|| JsonError::Parse(format!("{ctx}: missing field \"value\"")))
            .and_then(value_from_json)
    };
    match tag {
        "add-node" => Ok(DeltaOp::AddNode {
            label: string("label")?,
        }),
        "remove-node" => Ok(DeltaOp::RemoveNode {
            node: node("node")?,
        }),
        "add-edge" => Ok(DeltaOp::AddEdge {
            source: node("source")?,
            target: node("target")?,
            label: string("label")?,
        }),
        "remove-edge" => Ok(DeltaOp::RemoveEdge {
            edge: edge("edge")?,
        }),
        "set-node-property" => Ok(DeltaOp::SetNodeProperty {
            node: node("node")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-node-property" => Ok(DeltaOp::RemoveNodeProperty {
            node: node("node")?,
            name: string("name")?,
        }),
        "set-edge-property" => Ok(DeltaOp::SetEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
            value: value()?,
        }),
        "remove-edge-property" => Ok(DeltaOp::RemoveEdgeProperty {
            edge: edge("edge")?,
            name: string("name")?,
        }),
        "set-node-label" => Ok(DeltaOp::SetNodeLabel {
            node: node("node")?,
            label: string("label")?,
        }),
        other => Err(JsonError::Parse(format!("{ctx}: unknown op {other:?}"))),
    }
}

/// Serialises a mutation log to its JSON document (`{"ops": [...]}`).
pub fn delta_to_json(delta: &GraphDelta) -> String {
    delta_to_value(delta).to_string()
}

/// Builds the [`Json`] tree of a mutation log (`{"ops": [...]}`).
pub fn delta_to_value(delta: &GraphDelta) -> Json {
    let ops = Json::Array(delta.ops().iter().map(op_to_json).collect());
    Json::Object(vec![("ops".to_owned(), ops)])
}

/// Parses a mutation log from its JSON document.
///
/// Element ids are taken literally (no remapping): they must denote
/// elements of the graph the delta will be applied to, or elements the
/// delta itself creates (dense continuation ids, see
/// [`DeltaOp`]).
pub fn delta_from_json(text: &str) -> Result<GraphDelta, JsonError> {
    delta_from_value(&Json::parse(text)?)
}

/// Decodes a mutation log from an already-parsed [`Json`] tree.
pub fn delta_from_value(doc: &Json) -> Result<GraphDelta, JsonError> {
    let root = as_object(doc, "document")?;
    let ops = as_array(
        get(root, "ops")
            .ok_or_else(|| JsonError::Parse("document: missing field \"ops\"".into()))?,
        "ops",
    )?;
    let parsed = ops
        .iter()
        .enumerate()
        .map(|(ix, op)| op_from_json(op, &format!("op #{ix}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GraphDelta::from_ops(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .prop("u", "age", 30i64)
            .node("s", "UserSession")
            .edge("s", "u", "user")
            .edge_prop("certainty", 0.75)
            .build()
            .unwrap();
        let u = g.node_ids().next().unwrap();
        g.set_node_property(u, "id", Value::Id("u-17".into()));
        g.set_node_property(u, "nicknames", Value::from(vec!["al", "lice"]));
        g.set_node_property(u, "unit", Value::Enum("METER".into()));
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let text = to_json(&g);
        let g2 = from_json(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn id_and_enum_survive_roundtrip() {
        let g = sample();
        let g2 = from_json(&to_json(&g)).unwrap();
        let u = g2.nodes().find(|n| n.label() == "User").unwrap();
        assert_eq!(u.property("id"), Some(&Value::Id("u-17".into())));
        assert_eq!(u.property("unit"), Some(&Value::Enum("METER".into())));
    }

    #[test]
    fn large_integers_are_exact() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let big = (1i64 << 60) + 7;
        g.set_node_property(n, "big", Value::Int(big));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("big"), Some(&Value::Int(big)));
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        g.set_node_property(n, "f", Value::Float(120_000_000_000.0));
        g.set_node_property(n, "g", Value::Float(-3.0));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("f"), Some(&Value::Float(120_000_000_000.0)));
        assert_eq!(n2.property("g"), Some(&Value::Float(-3.0)));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("N");
        let tricky = "quote\" slash\\ newline\n tab\t ctrl\u{1} π❤";
        g.set_node_property(n, "s", Value::String(tricky.into()));
        let g2 = from_json(&to_json(&g)).unwrap();
        let n2 = g2.nodes().next().unwrap();
        assert_eq!(n2.property("s"), Some(&Value::String(tricky.into())));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let text = r#"{"nodes":[{"id":0,"label":"A",
                        "properties":{"s":"\ud83d\ude00ok"}}],"edges":[]}"#;
        let g = from_json(text).unwrap();
        let n = g.nodes().next().unwrap();
        assert_eq!(n.property("s"), Some(&Value::String("😀ok".into())));
    }

    #[test]
    fn multibyte_text_next_to_escapes_decodes() {
        let text = "[\"é\\n❤\\\"😀\\u00e9x\\\\\", \"\", \"ü\\t\"]";
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Array(vec![
                Json::Str("é\n❤\"😀éx\\".into()),
                Json::Str(String::new()),
                Json::Str("ü\t".into()),
            ])
        );
    }

    #[test]
    fn unterminated_strings_report_their_end_offset() {
        // `["abé❤` is 1 + 1 + 2 + 2 + 3 = 9 bytes long.
        let err = Json::parse("[\"abé❤").unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid graph JSON: unterminated string at byte 9"
        );
        let err = Json::parse("[\"é\\").unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid graph JSON: unterminated escape at byte 5"
        );
    }

    #[test]
    fn dangling_edge_is_reported() {
        let text = r#"{"nodes":[{"id":0,"label":"A"}],
                       "edges":[{"id":0,"label":"rel","source":0,"target":9}]}"#;
        match from_json(text) {
            Err(JsonError::DanglingEdge {
                edge_index: 0,
                node: 9,
            }) => {}
            other => panic!("expected dangling edge error, got {other:?}"),
        }
    }

    #[test]
    fn arbitrary_objects_are_rejected() {
        let text = r#"{"nodes":[{"id":0,"label":"A",
                        "properties":{"bad":{"x":1}}}],"edges":[]}"#;
        assert!(matches!(from_json(text), Err(JsonError::BadValue(_))));
    }

    #[test]
    fn syntax_errors_name_a_position() {
        let err = from_json("{\"nodes\": [,]}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid graph JSON"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }

    #[test]
    fn sparse_document_ids_are_remapped() {
        let text = r#"{"nodes":[{"id":100,"label":"A"},{"id":7,"label":"B"}],
                       "edges":[{"id":3,"label":"rel","source":100,"target":7}]}"#;
        let g = from_json(text).unwrap();
        assert_eq!(g.node_count(), 2);
        let e = g.edges().next().unwrap();
        assert_eq!(g.node_label(e.source()), Some("A"));
        assert_eq!(g.node_label(e.target()), Some("B"));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = PropertyGraph::new();
        assert_eq!(from_json(&to_json(&g)).unwrap(), g);
    }

    #[test]
    fn delta_roundtrip_covers_every_op() {
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let e0 = EdgeId::from_index(0);
        let delta = GraphDelta::new()
            .add_node("User")
            .remove_node(n1)
            .add_edge(n0, n1, "follows")
            .remove_edge(e0)
            .set_node_property(n0, "login", Value::from("alice"))
            .remove_node_property(n0, "login")
            .set_edge_property(e0, "w", Value::Float(0.5))
            .remove_edge_property(e0, "w")
            .set_node_label(n0, "Admin");
        let text = delta_to_json(&delta);
        let back = delta_from_json(&text).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_values_keep_tagged_kinds() {
        let n0 = NodeId::from_index(0);
        let delta = GraphDelta::new()
            .set_node_property(n0, "id", Value::Id("u-17".into()))
            .set_node_property(n0, "unit", Value::Enum("METER".into()))
            .set_node_property(n0, "xs", Value::from(vec![1i64, 2]));
        let back = delta_from_json(&delta_to_json(&delta)).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn delta_parse_errors_are_located() {
        assert!(delta_from_json("{}").is_err());
        let err = delta_from_json(r#"{"ops": [{"op": "warp"}]}"#).unwrap_err();
        assert!(err.to_string().contains("unknown op"), "{err}");
        let err = delta_from_json(r#"{"ops": [{"op": "add-node"}]}"#).unwrap_err();
        assert!(err.to_string().contains("op #0"), "{err}");
    }

    #[test]
    fn embedded_graph_and_delta_decode_from_value_trees() {
        // The server's request shape: graph and delta nested in an
        // envelope, decoded via the public value-level API.
        let g = sample();
        let delta = GraphDelta::new().set_node_property(
            g.node_ids().next().unwrap(),
            "age",
            Value::Int(31),
        );
        let envelope = Json::Object(vec![
            (
                "schema".to_owned(),
                Json::Str("type User { x: Int }".to_owned()),
            ),
            ("graph".to_owned(), graph_to_value(&g)),
            ("delta".to_owned(), delta_to_value(&delta)),
        ]);
        let text = envelope.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("type User { x: Int }")
        );
        let g2 = graph_from_value(parsed.get("graph").unwrap()).unwrap();
        assert_eq!(g, g2);
        let d2 = delta_from_value(parsed.get("delta").unwrap()).unwrap();
        assert_eq!(delta, d2);
        assert!(parsed.get("missing").is_none());
        assert!(parsed.get("schema").unwrap().get("x").is_none());
    }

    #[test]
    fn delta_applies_after_roundtrip() {
        let mut g = sample();
        let u = g.nodes().find(|n| n.label() == "User").unwrap().id;
        let delta = GraphDelta::new()
            .set_node_property(u, "age", Value::Int(31))
            .add_node("UserSession");
        let delta = delta_from_json(&delta_to_json(&delta)).unwrap();
        let eff = delta.apply_to(&mut g).unwrap();
        assert_eq!(g.node_property(u, "age"), Some(&Value::Int(31)));
        assert_eq!(eff.added_nodes.len(), 1);
    }
}
