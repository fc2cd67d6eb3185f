//! The value pool of the columnar graph against a reference: value ids and
//! equality classes must match a straightforward byte-keyed interner (one
//! map from the tagged binary encoding to an id, one map from `Value` to
//! the first id of its class), both when values are interned one by one
//! (freeze) and when a pool is rebuilt from its stored values (snapshot
//! thaw). A golden digest pins the snapshot bytes of a fixed graph whose
//! values exercise every corner of the two identities.

use std::collections::HashMap;

use pgraph::{snapshot, ColumnarGraph, NodeId, PropertyGraph, Value, ValueTable};
use proptest::prelude::*;

/// The tagged binary form (same layout as `pgraph::binary`): bit-exact,
/// so it separates `0.0`/`-0.0` and NaN payloads.
fn encode(out: &mut Vec<u8>, v: &Value) {
    let text = |out: &mut Vec<u8>, tag: u8, s: &str| {
        out.push(tag);
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::String(s) => text(out, 2, s),
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Id(s) => text(out, 4, s),
        Value::Enum(s) => text(out, 5, s),
        Value::List(items) => {
            out.push(6);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode(out, item);
            }
        }
        Value::Null => out.push(7),
    }
}

fn bytes_of(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode(&mut out, v);
    out
}

/// The byte-keyed interner the pool must agree with.
#[derive(Default)]
struct Reference {
    by_bytes: HashMap<Vec<u8>, u32>,
    by_eq: HashMap<Value, u32>,
    eq_rep: Vec<u32>,
}

impl Reference {
    fn intern(&mut self, v: &Value) -> u32 {
        let key = bytes_of(v);
        if let Some(&id) = self.by_bytes.get(&key) {
            return id;
        }
        let id = self.eq_rep.len() as u32;
        self.by_bytes.insert(key, id);
        let rep = *self.by_eq.entry(v.clone()).or_insert(id);
        self.eq_rep.push(rep);
        id
    }
}

/// NaNs with assorted payloads and either sign.
fn nan() -> impl Strategy<Value = f64> {
    (any::<u64>(), any::<bool>()).prop_map(|(payload, negative)| {
        let bits = 0x7ff0_0000_0000_0000 | (payload & 0x000f_ffff_ffff_ffff).max(1);
        f64::from_bits(if negative { bits | (1 << 63) } else { bits })
    })
}

/// Scalars drawn from small pools so that bit-equal, `Value`-equal and
/// same-text-different-kind values collide often.
fn leaf() -> impl Strategy<Value = Value> {
    let text = prop_oneof![Just("1"), Just("a"), Just("é✓")];
    prop_oneof![
        prop_oneof![Just(0.0), Just(-0.0), Just(1.0), nan(), any::<f64>()].prop_map(Value::Float),
        prop_oneof![Just(0i64), Just(1i64), any::<i64>()].prop_map(Value::Int),
        text.clone().prop_map(|s| Value::String(s.to_owned())),
        text.clone().prop_map(|s| Value::Id(s.to_owned())),
        text.prop_map(|s| Value::Enum(s.to_owned())),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    leaf().prop_recursive(3, 16, 3, |inner| {
        prop::collection::vec(inner, 0..3).prop_map(Value::List)
    })
}

/// One node per value, in order, so freezing interns them in that order.
fn graph_of(values: &[Value]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for v in values {
        let n = g.add_node("V");
        g.set_node_property(n, "v", v.clone());
    }
    g
}

fn assert_matches_reference(table: &ValueTable, reference: &Reference) {
    assert_eq!(table.len(), reference.eq_rep.len());
    for id in 0..table.len() as u32 {
        assert_eq!(
            table.eq_rep(id),
            reference.eq_rep[id as usize],
            "eq_rep of id {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ids_and_classes_match_the_byte_keyed_reference(values in prop::collection::vec(value(), 0..40)) {
        let mut table = ValueTable::default();
        let mut reference = Reference::default();
        for v in &values {
            let id = table.intern(v);
            prop_assert_eq!(id, reference.intern(v));
            // The stored value is the interned one, bit for bit.
            prop_assert_eq!(bytes_of(table.value(id)), bytes_of(v));
        }
        assert_matches_reference(&table, &reference);
    }

    #[test]
    fn freeze_and_snapshot_thaw_agree_with_the_reference(values in prop::collection::vec(value(), 0..40)) {
        let mut reference = Reference::default();
        let ids: Vec<u32> = values.iter().map(|v| reference.intern(v)).collect();

        let cg = ColumnarGraph::freeze(&graph_of(&values));
        assert_matches_reference(cg.values(), &reference);
        for (ix, &id) in ids.iter().enumerate() {
            prop_assert_eq!(cg.node_prop_vids(NodeId::from_index(ix)), &[id][..]);
        }

        let bytes = snapshot::encode(&cg);
        let thawed = snapshot::SnapshotView::parse(&bytes).unwrap().thaw_columnar().unwrap();
        assert_matches_reference(thawed.values(), &reference);
        for id in 0..cg.values().len() as u32 {
            prop_assert_eq!(bytes_of(thawed.values().value(id)), bytes_of(cg.values().value(id)));
        }
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snapshot_bytes_of_a_tricky_graph_are_pinned() {
    let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
    let nan_b = f64::from_bits(0xfff0_0000_0000_0bad);
    let props: Vec<(&str, Value)> = vec![
        ("zero", Value::Float(0.0)),
        ("neg_zero", Value::Float(-0.0)),
        ("nan_a", Value::Float(nan_a)),
        ("nan_b", Value::Float(nan_b)),
        ("one_int", Value::Int(1)),
        ("one_float", Value::Float(1.0)),
        ("s", Value::String("x✓".into())),
        ("id", Value::Id("x✓".into())),
        ("en", Value::Enum("x✓".into())),
        (
            "nested",
            Value::List(vec![
                Value::List(vec![Value::Float(-0.0), Value::Null]),
                Value::Float(nan_b),
                Value::Bool(true),
            ]),
        ),
        (
            "nested_eq",
            Value::List(vec![
                Value::List(vec![Value::Float(0.0), Value::Null]),
                Value::Float(nan_a),
                Value::Bool(true),
            ]),
        ),
        ("empty", Value::List(vec![])),
    ];
    let mut g = PropertyGraph::new();
    let mut nodes = Vec::new();
    for (i, (key, v)) in props.iter().enumerate() {
        let n = g.add_node(if i % 2 == 0 { "Even" } else { "Odd" });
        g.set_node_property(n, *key, v.clone());
        // A shared key repeats one of the first three values, so the pool
        // sees bit-identical values again.
        g.set_node_property(n, "a_shared", props[i % 3].1.clone());
        nodes.push(n);
    }
    for w in nodes.windows(2) {
        let e = g.add_edge(w[0], w[1], "next").unwrap();
        g.set_edge_property(e, "w", Value::Float(-0.0));
    }
    let doomed = g.add_node("Doomed");
    g.set_node_property(doomed, "gone", Value::Float(f64::NAN));
    g.add_edge(nodes[0], doomed, "next").unwrap();
    g.remove_node(doomed).unwrap();

    let bytes = snapshot::graph_to_snapshot_bytes(&g);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (GOLDEN_LEN, GOLDEN_FNV),
        "PGCS bytes of the fixed graph changed"
    );
}

/// Length and FNV-1a digest of the fixed graph's PGCS bytes, as written by
/// the byte-keyed value pool this table replaced.
const GOLDEN_LEN: usize = 1325;
const GOLDEN_FNV: u64 = 0x0e8d_c96e_36db_bdff;
