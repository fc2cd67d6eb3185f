//! Columnar (struct-of-arrays) graph representation with CSR adjacency.
//!
//! [`PropertyGraph`] is the *mutable* element store: a `Vec` of per-element
//! structs whose properties live in `BTreeMap<String, Value>`. That shape
//! is right for deltas but wrong for validation, where the 15 rule kernels
//! are dominated by label comparisons, property lookups and neighbourhood
//! scans — every one of which pays pointer chasing and string hashing in
//! the map-shaped form.
//!
//! [`ColumnarGraph::freeze`] converts a graph into dense parallel columns:
//!
//! * labels and property keys become [`Sym`]s in one [`SymbolTable`];
//! * property values are deduplicated into a [`ValueTable`] and referred
//!   to by `u32` value ids. Each value costs one keyed hash of its
//!   bit-exact form and one stored copy: a digest map plus a collision
//!   chain find its id, and only float-carrying values (the only ones
//!   whose `Value` equality is coarser than bit equality) enter a
//!   separate equality-class map;
//! * per-element property lists are flattened into `(start, keys, vals)`
//!   prefix-sum columns, sorted by key symbol so lookup is a binary
//!   search over a handful of `u32`s;
//! * adjacency is CSR (compressed sparse row) in **both** directions,
//!   each row sorted by `(label, neighbour, edge id)` so "edges of `v`
//!   labelled `l`" is a subslice and parallel-edge groups are contiguous
//!   runs;
//! * a label index CSR maps each label symbol to the sorted slice of
//!   live nodes carrying it.
//!
//! Tombstoned slots keep their label and properties in the columns (the
//! id space must round-trip exactly — see [`crate::binary`]) but are
//! excluded from the CSR and label indexes. The frozen form is immutable;
//! [`ColumnarGraph::thaw`] rebuilds an identical [`PropertyGraph`].
//!
//! The columns (not the derived CSR) are also the on-disk snapshot
//! layout — see [`crate::snapshot`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use crate::graph::{EdgeData, NodeData, PropMap};
use crate::symbols::{Sym, SymbolTable};
use crate::{EdgeId, NodeId, PropertyGraph, Value};

/// Interned property values, deduplicated two ways.
///
/// *Storage identity* is bit-exact: two values share a value id iff their
/// binary encodings are identical, so NaN payloads and `-0.0` survive a
/// round-trip untouched. *Comparison identity* follows [`Value`]'s `Eq`
/// (which canonicalises floats: every NaN is equal to every NaN, `-0.0 ==
/// 0.0`): [`ValueTable::eq_rep`] maps each value id to the id of the first
/// value in its equivalence class, so kernels that ask "do these two
/// properties agree?" (DS7) compare two `u32`s.
///
/// Each value is hashed once, straight from the [`Value`], into a 64-bit
/// digest of its bit-exact form, keyed by the table's own [`RandomState`]
/// so that crafted input cannot force collisions. A map from digest to the
/// newest id with that digest, plus a `next` chain through older ids with
/// the same digest, finds a value's id; candidates are confirmed by a
/// bit-exact comparison against the one stored copy in `exact`. Only
/// values that contain a float can be `Value`-equal without being
/// bit-equal, so only those enter the `Value`-keyed class map; every other
/// value is its own class representative.
#[derive(Debug, Clone, Default)]
pub struct ValueTable {
    exact: Vec<Value>,
    eq_rep: Vec<u32>,
    heads: HashMap<u64, u32, BuildHasherDefault<DigestHasher>>,
    next: Vec<u32>,
    float_classes: HashMap<Value, u32>,
    keys: DigestKeys,
}

/// The keys of a table's value digest. Test builds substitute a state
/// whose digest can be pinned, to drive the collision chain.
#[cfg(not(test))]
type DigestKeys = RandomState;
#[cfg(test)]
type DigestKeys = tests::PinnableKeys;

/// End of a collision chain.
const NO_NEXT: u32 = u32::MAX;

/// Passes a digest through as its own hash: the keys of
/// `ValueTable::heads` are already keyed SipHash outputs.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("digests are hashed with write_u64")
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ValueTable {
    fn with_capacity(n: usize) -> ValueTable {
        let mut t = ValueTable::default();
        t.exact.reserve(n);
        t.eq_rep.reserve(n);
        t.next.reserve(n);
        t.heads.reserve(n);
        t
    }

    /// Interns a value, returning its (bit-exact) value id.
    pub fn intern(&mut self, v: &Value) -> u32 {
        let digest = self.digest(v);
        match self.find(digest, v) {
            Some(id) => id,
            None => self.push(digest, v.clone(), None),
        }
    }

    /// The exact stored value behind an id.
    pub fn value(&self, id: u32) -> &Value {
        &self.exact[id as usize]
    }

    /// The representative id of `id`'s `Value`-equality class.
    pub fn eq_rep(&self, id: u32) -> u32 {
        self.eq_rep[id as usize]
    }

    /// Number of distinct (bit-exact) values.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// All stored values in id order.
    pub fn values(&self) -> &[Value] {
        &self.exact
    }

    /// Rebuilds a table from decoded values (snapshot thaw). Every value
    /// keeps its position as its id, even a bit-exact repeat (which a
    /// well-formed snapshot never holds); a repeat joins its twin's class.
    pub(crate) fn from_values(values: Vec<Value>) -> ValueTable {
        let mut t = ValueTable::with_capacity(values.len());
        t.push_all(values);
        t
    }

    fn push_all(&mut self, values: Vec<Value>) {
        for v in values {
            let digest = self.digest(&v);
            let twin = self.find(digest, &v);
            self.push(digest, v, twin);
        }
    }

    fn digest(&self, v: &Value) -> u64 {
        let mut h = self.keys.build_hasher();
        hash_exact(v, &mut h);
        h.finish()
    }

    /// The newest id whose value is bit-equal to `v`.
    fn find(&self, digest: u64, v: &Value) -> Option<u32> {
        let mut id = *self.heads.get(&digest)?;
        while id != NO_NEXT {
            if same_bits(&self.exact[id as usize], v) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Stores `v` under the next id; `twin` is a bit-equal id already
    /// stored, if any.
    fn push(&mut self, digest: u64, v: Value, twin: Option<u32>) -> u32 {
        let id = self.exact.len() as u32;
        let rep = match twin {
            Some(twin) => self.eq_rep[twin as usize],
            None if has_float(&v) => *self.float_classes.entry(v.clone()).or_insert(id),
            None => id,
        };
        let older = self.heads.insert(digest, id).unwrap_or(NO_NEXT);
        self.next.push(older);
        self.eq_rep.push(rep);
        self.exact.push(v);
        id
    }
}

/// Feeds the bit-exact form of `v` to `h`: the tags of the binary
/// encoding, raw float bits, string bytes, list lengths and items.
fn hash_exact(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Int(i) => {
            h.write_u8(0);
            h.write_i64(*i);
        }
        Value::Float(x) => {
            h.write_u8(1);
            h.write_u64(x.to_bits());
        }
        Value::String(s) => {
            h.write_u8(2);
            s.hash(h);
        }
        Value::Bool(b) => {
            h.write_u8(3);
            h.write_u8(*b as u8);
        }
        Value::Id(s) => {
            h.write_u8(4);
            s.hash(h);
        }
        Value::Enum(s) => {
            h.write_u8(5);
            s.hash(h);
        }
        Value::List(items) => {
            h.write_u8(6);
            h.write_usize(items.len());
            for item in items {
                hash_exact(item, h);
            }
        }
        Value::Null => h.write_u8(7),
    }
}

/// Bit-exact equality: `Value` equality except that floats compare raw
/// bits (so `0.0 != -0.0` and NaN payloads differ).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Whether `v` is or contains a float — the only values whose `Value`
/// equality is coarser than bit equality.
fn has_float(v: &Value) -> bool {
    match v {
        Value::Float(_) => true,
        Value::List(items) => items.iter().any(has_float),
        _ => false,
    }
}

/// The frozen, columnar form of a [`PropertyGraph`].
///
/// All columns are parallel to the raw id space (tombstones included);
/// derived CSR indexes cover live elements only. See the module docs for
/// the layout.
#[derive(Debug, Clone)]
pub struct ColumnarGraph {
    pub(crate) symbols: SymbolTable,
    pub(crate) values: ValueTable,

    pub(crate) node_alive: Vec<bool>,
    pub(crate) node_label: Vec<Sym>,
    pub(crate) node_prop_start: Vec<u32>,
    pub(crate) node_prop_keys: Vec<Sym>,
    pub(crate) node_prop_vals: Vec<u32>,

    pub(crate) edge_alive: Vec<bool>,
    pub(crate) edge_label: Vec<Sym>,
    pub(crate) edge_src: Vec<u32>,
    pub(crate) edge_dst: Vec<u32>,
    pub(crate) edge_prop_start: Vec<u32>,
    pub(crate) edge_prop_keys: Vec<Sym>,
    pub(crate) edge_prop_vals: Vec<u32>,

    // Derived — rebuilt on freeze/thaw, never serialised.
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    in_start: Vec<u32>,
    in_edges: Vec<u32>,
    label_start: Vec<u32>,
    label_nodes: Vec<u32>,
    labels_present: Vec<Sym>,

    live_nodes: usize,
    live_edges: usize,
}

impl ColumnarGraph {
    /// Freezes a graph into columns. Deterministic: symbols and value ids
    /// are assigned by one fixed walk (node slots in id order — label
    /// first, then property keys in name order — then edge slots), so the
    /// same graph always freezes to the same bytes.
    pub fn freeze(g: &PropertyGraph) -> ColumnarGraph {
        let node_props: usize = g.nodes.iter().map(|d| d.props.len()).sum();
        let edge_props: usize = g.edges.iter().map(|d| d.props.len()).sum();
        let mut symbols = SymbolTable::new();
        // Sized for all-distinct values, the common case for keyed data.
        let mut values = ValueTable::with_capacity(node_props + edge_props);

        let n = g.node_index_bound();
        let mut node_alive = Vec::with_capacity(n);
        let mut node_label = Vec::with_capacity(n);
        let mut node_prop_start = Vec::with_capacity(n + 1);
        let mut node_prop_keys = Vec::with_capacity(node_props);
        let mut node_prop_vals = Vec::with_capacity(node_props);
        node_prop_start.push(0);
        for data in &g.nodes {
            node_alive.push(data.alive);
            node_label.push(symbols.intern(&data.label));
            push_props(
                &data.props,
                &mut symbols,
                &mut values,
                &mut node_prop_keys,
                &mut node_prop_vals,
            );
            node_prop_start.push(node_prop_keys.len() as u32);
        }

        let m = g.edge_index_bound();
        let mut edge_alive = Vec::with_capacity(m);
        let mut edge_label = Vec::with_capacity(m);
        let mut edge_src = Vec::with_capacity(m);
        let mut edge_dst = Vec::with_capacity(m);
        let mut edge_prop_start = Vec::with_capacity(m + 1);
        let mut edge_prop_keys = Vec::with_capacity(edge_props);
        let mut edge_prop_vals = Vec::with_capacity(edge_props);
        edge_prop_start.push(0);
        for data in &g.edges {
            edge_alive.push(data.alive);
            edge_label.push(symbols.intern(&data.label));
            edge_src.push(data.src.index() as u32);
            edge_dst.push(data.dst.index() as u32);
            push_props(
                &data.props,
                &mut symbols,
                &mut values,
                &mut edge_prop_keys,
                &mut edge_prop_vals,
            );
            edge_prop_start.push(edge_prop_keys.len() as u32);
        }

        let mut cg = ColumnarGraph {
            symbols,
            values,
            node_alive,
            node_label,
            node_prop_start,
            node_prop_keys,
            node_prop_vals,
            edge_alive,
            edge_label,
            edge_src,
            edge_dst,
            edge_prop_start,
            edge_prop_keys,
            edge_prop_vals,
            out_start: Vec::new(),
            out_edges: Vec::new(),
            in_start: Vec::new(),
            in_edges: Vec::new(),
            label_start: Vec::new(),
            label_nodes: Vec::new(),
            labels_present: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
        };
        cg.rebuild_derived();
        cg
    }

    /// Assembles a graph from raw columns (snapshot thaw). The caller has
    /// already validated the columns; this only rebuilds derived indexes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        symbols: SymbolTable,
        values: ValueTable,
        node_alive: Vec<bool>,
        node_label: Vec<Sym>,
        node_prop_start: Vec<u32>,
        node_prop_keys: Vec<Sym>,
        node_prop_vals: Vec<u32>,
        edge_alive: Vec<bool>,
        edge_label: Vec<Sym>,
        edge_src: Vec<u32>,
        edge_dst: Vec<u32>,
        edge_prop_start: Vec<u32>,
        edge_prop_keys: Vec<Sym>,
        edge_prop_vals: Vec<u32>,
    ) -> ColumnarGraph {
        let mut cg = ColumnarGraph {
            symbols,
            values,
            node_alive,
            node_label,
            node_prop_start,
            node_prop_keys,
            node_prop_vals,
            edge_alive,
            edge_label,
            edge_src,
            edge_dst,
            edge_prop_start,
            edge_prop_keys,
            edge_prop_vals,
            out_start: Vec::new(),
            out_edges: Vec::new(),
            in_start: Vec::new(),
            in_edges: Vec::new(),
            label_start: Vec::new(),
            label_nodes: Vec::new(),
            labels_present: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
        };
        cg.rebuild_derived();
        cg
    }

    /// (Re)builds the CSR adjacency and label indexes from the columns.
    fn rebuild_derived(&mut self) {
        self.live_nodes = self.node_alive.iter().filter(|&&a| a).count();
        self.live_edges = self.edge_alive.iter().filter(|&&a| a).count();
        let n = self.node_alive.len();

        // Out-CSR: live edge ids sorted by (src, label, dst, id); rows are
        // then label-runs, and within a label, target-runs (= parallel
        // edge groups).
        let mut out: Vec<u32> = (0..self.edge_alive.len() as u32)
            .filter(|&e| self.edge_alive[e as usize])
            .collect();
        out.sort_unstable_by_key(|&e| {
            let ix = e as usize;
            (self.edge_src[ix], self.edge_label[ix], self.edge_dst[ix], e)
        });
        self.out_start = prefix_counts(n, out.iter().map(|&e| self.edge_src[e as usize]));
        self.out_edges = out;

        let mut inc: Vec<u32> = (0..self.edge_alive.len() as u32)
            .filter(|&e| self.edge_alive[e as usize])
            .collect();
        inc.sort_unstable_by_key(|&e| {
            let ix = e as usize;
            (self.edge_dst[ix], self.edge_label[ix], self.edge_src[ix], e)
        });
        self.in_start = prefix_counts(n, inc.iter().map(|&e| self.edge_dst[e as usize]));
        self.in_edges = inc;

        // Label index: live node ids grouped by label symbol.
        let mut by_label: Vec<u32> = (0..n as u32)
            .filter(|&v| self.node_alive[v as usize])
            .collect();
        by_label.sort_unstable_by_key(|&v| (self.node_label[v as usize], v));
        self.label_start = prefix_counts(
            self.symbols.len(),
            by_label.iter().map(|&v| self.node_label[v as usize].0),
        );
        self.labels_present = {
            let mut syms: Vec<Sym> = by_label
                .iter()
                .map(|&v| self.node_label[v as usize])
                .collect();
            syms.dedup();
            syms
        };
        self.label_nodes = by_label;
    }

    /// Rebuilds the mutable [`PropertyGraph`] the columns were frozen
    /// from, `PartialEq`-identical to the original (tombstones included).
    pub fn thaw(&self) -> PropertyGraph {
        let nodes = (0..self.node_alive.len())
            .map(|ix| NodeData {
                label: self.symbols.resolve(self.node_label[ix]).to_owned(),
                props: self.props_map(
                    self.node_prop_start[ix],
                    self.node_prop_start[ix + 1],
                    &self.node_prop_keys,
                    &self.node_prop_vals,
                ),
                alive: self.node_alive[ix],
            })
            .collect();
        let edges = (0..self.edge_alive.len())
            .map(|ix| EdgeData {
                label: self.symbols.resolve(self.edge_label[ix]).to_owned(),
                src: NodeId::from_index(self.edge_src[ix] as usize),
                dst: NodeId::from_index(self.edge_dst[ix] as usize),
                props: self.props_map(
                    self.edge_prop_start[ix],
                    self.edge_prop_start[ix + 1],
                    &self.edge_prop_keys,
                    &self.edge_prop_vals,
                ),
                alive: self.edge_alive[ix],
            })
            .collect();
        PropertyGraph::from_raw_parts(nodes, edges)
    }

    fn props_map(&self, start: u32, end: u32, keys: &[Sym], vals: &[u32]) -> PropMap {
        let mut map = PropMap::new();
        for ix in start as usize..end as usize {
            map.insert(
                self.symbols.resolve(keys[ix]).to_owned(),
                self.values.value(vals[ix]).clone(),
            );
        }
        map
    }

    // ------------------------------------------------------------ access

    /// The intern table (labels, property keys).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable intern table — lets a schema be interned into the *same*
    /// symbol space after freezing (new symbols simply have no elements).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// The value pool.
    pub fn values(&self) -> &ValueTable {
        &self.values
    }

    /// Raw node slot count (tombstones included).
    pub fn node_slots(&self) -> usize {
        self.node_alive.len()
    }

    /// Raw edge slot count (tombstones included).
    pub fn edge_slots(&self) -> usize {
        self.edge_alive.len()
    }

    /// Live node count.
    pub fn live_node_count(&self) -> usize {
        self.live_nodes
    }

    /// Live edge count.
    pub fn live_edge_count(&self) -> usize {
        self.live_edges
    }

    /// Whether node slot `ix` is live.
    pub fn node_is_live(&self, ix: usize) -> bool {
        self.node_alive.get(ix).copied().unwrap_or(false)
    }

    /// Whether edge slot `ix` is live.
    pub fn edge_is_live(&self, ix: usize) -> bool {
        self.edge_alive.get(ix).copied().unwrap_or(false)
    }

    /// Label symbol of a node slot (live or tombstoned).
    pub fn node_label_sym(&self, n: NodeId) -> Sym {
        self.node_label[n.index()]
    }

    /// Label symbol of an edge slot.
    pub fn edge_label_sym(&self, e: EdgeId) -> Sym {
        self.edge_label[e.index()]
    }

    /// Source of an edge slot.
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_src[e.index()] as usize)
    }

    /// Target of an edge slot.
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_dst[e.index()] as usize)
    }

    /// Property key symbols of a node, sorted.
    pub fn node_prop_syms(&self, n: NodeId) -> &[Sym] {
        let (a, b) = self.node_prop_range(n);
        &self.node_prop_keys[a..b]
    }

    /// Property value ids of a node, parallel to
    /// [`node_prop_syms`](Self::node_prop_syms).
    pub fn node_prop_vids(&self, n: NodeId) -> &[u32] {
        let (a, b) = self.node_prop_range(n);
        &self.node_prop_vals[a..b]
    }

    /// Property key symbols of an edge, sorted.
    pub fn edge_prop_syms(&self, e: EdgeId) -> &[Sym] {
        let (a, b) = self.edge_prop_range(e);
        &self.edge_prop_keys[a..b]
    }

    /// Property value ids of an edge.
    pub fn edge_prop_vids(&self, e: EdgeId) -> &[u32] {
        let (a, b) = self.edge_prop_range(e);
        &self.edge_prop_vals[a..b]
    }

    /// `σ(v, key)` by symbol — binary search over the node's key column.
    pub fn node_prop(&self, n: NodeId, key: Sym) -> Option<&Value> {
        self.node_prop_vid(n, key).map(|vid| self.values.value(vid))
    }

    /// The value id of `σ(v, key)`, if defined.
    pub fn node_prop_vid(&self, n: NodeId, key: Sym) -> Option<u32> {
        let (a, b) = self.node_prop_range(n);
        let keys = &self.node_prop_keys[a..b];
        keys.binary_search(&key)
            .ok()
            .map(|i| self.node_prop_vals[a + i])
    }

    fn node_prop_range(&self, n: NodeId) -> (usize, usize) {
        let ix = n.index();
        (
            self.node_prop_start[ix] as usize,
            self.node_prop_start[ix + 1] as usize,
        )
    }

    fn edge_prop_range(&self, e: EdgeId) -> (usize, usize) {
        let ix = e.index();
        (
            self.edge_prop_start[ix] as usize,
            self.edge_prop_start[ix + 1] as usize,
        )
    }

    /// Out-CSR row of `v`: live out-edge ids sorted by
    /// `(label, target, id)`. Empty for out-of-range ids.
    pub fn out_row(&self, v: NodeId) -> &[u32] {
        csr_row(&self.out_start, &self.out_edges, v.index())
    }

    /// In-CSR row of `v`: live in-edge ids sorted by `(label, source, id)`.
    pub fn in_row(&self, v: NodeId) -> &[u32] {
        csr_row(&self.in_start, &self.in_edges, v.index())
    }

    /// Live out-edges of `v` labelled `label` — a subslice of
    /// [`out_row`](Self::out_row), found by binary search. Zero
    /// allocation.
    pub fn out_edges_labelled(&self, v: NodeId, label: Sym) -> &[u32] {
        label_run(self.out_row(v), &self.edge_label, label)
    }

    /// Live in-edges of `v` labelled `label`.
    pub fn in_edges_labelled(&self, v: NodeId, label: Sym) -> &[u32] {
        label_run(self.in_row(v), &self.edge_label, label)
    }

    /// Sorted live node ids labelled `label`. Empty for symbols interned
    /// after the freeze (e.g. schema names).
    pub fn nodes_with_label(&self, label: Sym) -> &[u32] {
        csr_row(&self.label_start, &self.label_nodes, label.index())
    }

    /// Sorted distinct label symbols with at least one live node.
    pub fn labels_present(&self) -> &[Sym] {
        &self.labels_present
    }
}

/// Interns one element's property map into the flattened columns, keys
/// sorted by symbol (not by name — lookup binary-searches symbols).
fn push_props(
    props: &PropMap,
    symbols: &mut SymbolTable,
    values: &mut ValueTable,
    keys: &mut Vec<Sym>,
    vals: &mut Vec<u32>,
) {
    let start = keys.len();
    for (name, value) in props {
        keys.push(symbols.intern(name));
        vals.push(values.intern(value));
    }
    // Few properties per element: insertion-sort the two parallel slices
    // in place. Keys are distinct, so the order is fully determined.
    let (keys, vals) = (&mut keys[start..], &mut vals[start..]);
    for i in 1..keys.len() {
        let mut j = i;
        while j > 0 && keys[j - 1] > keys[j] {
            keys.swap(j - 1, j);
            vals.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Builds a CSR `start` array of length `bins + 1` from an iterator of
/// bin keys that is sorted ascending.
fn prefix_counts(bins: usize, sorted_keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; bins + 1];
    for k in sorted_keys {
        start[k as usize + 1] += 1;
    }
    for i in 0..bins {
        start[i + 1] += start[i];
    }
    start
}

fn csr_row<'a>(start: &[u32], items: &'a [u32], ix: usize) -> &'a [u32] {
    if ix + 1 >= start.len() {
        return &[];
    }
    &items[start[ix] as usize..start[ix + 1] as usize]
}

/// The `(label == l)` run inside a row sorted by label-first order.
fn label_run<'a>(row: &'a [u32], edge_label: &[Sym], label: Sym) -> &'a [u32] {
    let lo = row.partition_point(|&e| edge_label[e as usize] < label);
    let hi = row.partition_point(|&e| edge_label[e as usize] <= label);
    &row[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::collections::hash_map::DefaultHasher;

    /// [`RandomState`] with an optional pinned digest: every value hashes
    /// to the pin, so every lookup walks one collision chain.
    #[derive(Debug, Clone, Default)]
    pub(super) struct PinnableKeys {
        keys: RandomState,
        pinned: Option<u64>,
    }

    pub(super) struct PinnableHasher {
        inner: DefaultHasher,
        pinned: Option<u64>,
    }

    impl BuildHasher for PinnableKeys {
        type Hasher = PinnableHasher;

        fn build_hasher(&self) -> PinnableHasher {
            PinnableHasher {
                inner: self.keys.build_hasher(),
                pinned: self.pinned,
            }
        }
    }

    impl Hasher for PinnableHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.inner.write(bytes);
        }

        fn finish(&self) -> u64 {
            self.pinned.unwrap_or_else(|| self.inner.finish())
        }
    }

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("a", "User")
            .prop("a", "login", "alice")
            .prop("a", "age", 30i64)
            .node("b", "User")
            .prop("b", "login", "bob")
            .node("s", "Session")
            .edge("a", "b", "follows")
            .edge("a", "b", "follows")
            .edge("s", "a", "user")
            .build()
            .unwrap();
        let doomed = g.add_node("Doomed");
        g.set_node_property(doomed, "x", Value::Int(1));
        g.remove_node(doomed).unwrap();
        g
    }

    #[test]
    fn freeze_thaw_round_trips_including_tombstones() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        assert_eq!(cg.thaw(), g);
        assert_eq!(cg.node_slots(), g.node_index_bound());
        assert_eq!(cg.live_node_count(), g.node_count());
        assert_eq!(cg.live_edge_count(), g.edge_count());
    }

    #[test]
    fn label_index_covers_live_nodes_only() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let user = cg.symbols().lookup("User").unwrap();
        assert_eq!(cg.nodes_with_label(user).len(), 2);
        let doomed = cg.symbols().lookup("Doomed").unwrap();
        assert_eq!(cg.nodes_with_label(doomed).len(), 0);
        // A symbol interned after freezing resolves to an empty slice.
        let mut cg = cg;
        let fresh = cg.symbols_mut().intern("Fresh");
        assert_eq!(cg.nodes_with_label(fresh).len(), 0);
        assert_eq!(cg.out_row(NodeId::from_index(9999)).len(), 0);
    }

    #[test]
    fn csr_rows_group_labels_and_parallels() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let a = NodeId::from_index(0);
        let follows = cg.symbols().lookup("follows").unwrap();
        let user = cg.symbols().lookup("user").unwrap();
        assert_eq!(cg.out_edges_labelled(a, follows).len(), 2);
        assert_eq!(cg.out_edges_labelled(a, user).len(), 0);
        assert_eq!(cg.in_edges_labelled(a, user).len(), 1);
        // The two parallel follows edges are adjacent in the row.
        let row = cg.out_row(a);
        assert_eq!(row.len(), 2);
        assert_eq!(
            cg.edge_target(EdgeId::from_index(row[0] as usize)),
            cg.edge_target(EdgeId::from_index(row[1] as usize))
        );
    }

    #[test]
    fn property_lookup_by_symbol() {
        let g = sample();
        let cg = ColumnarGraph::freeze(&g);
        let a = NodeId::from_index(0);
        let login = cg.symbols().lookup("login").unwrap();
        assert_eq!(cg.node_prop(a, login), Some(&Value::from("alice")));
        let age = cg.symbols().lookup("age").unwrap();
        assert_eq!(cg.node_prop(a, age), Some(&Value::Int(30)));
        let absent = Sym::from_index(10_000);
        assert_eq!(cg.node_prop(a, absent), None);
    }

    #[test]
    fn value_table_separates_exact_and_eq_identity() {
        let mut t = ValueTable::default();
        let zero = t.intern(&Value::Float(0.0));
        let neg_zero = t.intern(&Value::Float(-0.0));
        // Bit-distinct → distinct ids; Value-equal → same representative.
        assert_ne!(zero, neg_zero);
        assert_eq!(t.eq_rep(zero), t.eq_rep(neg_zero));
        assert_eq!(
            t.value(neg_zero).to_string(),
            Value::Float(-0.0).to_string()
        );
        // Identical bits → identical id.
        assert_eq!(t.intern(&Value::Float(0.0)), zero);
        let i = t.intern(&Value::Int(0));
        assert_ne!(t.eq_rep(i), t.eq_rep(zero));
    }

    #[test]
    fn colliding_digests_are_settled_by_exact_comparison() {
        let mut t = ValueTable {
            keys: PinnableKeys {
                pinned: Some(42),
                ..PinnableKeys::default()
            },
            ..ValueTable::default()
        };
        let values = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0002)),
            Value::Int(1),
            Value::Float(1.0),
            Value::from("x"),
            Value::Id("x".into()),
            Value::Enum("x".into()),
            Value::List(vec![Value::Float(-0.0)]),
            Value::List(vec![Value::Float(0.0)]),
        ];
        let ids: Vec<u32> = values.iter().map(|v| t.intern(v)).collect();
        // One chain holds them all, yet every value gets its own id ...
        assert_eq!(ids, (0..values.len() as u32).collect::<Vec<_>>());
        assert_eq!(t.heads.len(), 1);
        // ... and finds it again from anywhere in the chain.
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(t.intern(v), id);
        }
        assert_eq!(t.len(), values.len());
        // Float classes are unaffected by the shared digest.
        let reps: Vec<u32> = ids.iter().map(|&id| t.eq_rep(id)).collect();
        assert_eq!(reps, [0, 0, 2, 2, 4, 5, 6, 7, 8, 9, 9]);

        // The thaw path agrees, and a repeated value joins its twin's class.
        let mut stored = t.values().to_vec();
        stored.push(Value::Float(-0.0));
        stored.push(Value::from("x"));
        let mut thawed = ValueTable {
            keys: t.keys.clone(),
            ..ValueTable::default()
        };
        thawed.push_all(stored);
        assert_eq!(thawed.heads.len(), 1);
        let thawed_reps: Vec<u32> = (0..thawed.len() as u32)
            .map(|id| thawed.eq_rep(id))
            .collect();
        assert_eq!(thawed_reps[..reps.len()], reps[..]);
        assert_eq!(thawed_reps[reps.len()..], [0, 6]);
    }

    #[test]
    fn empty_graph_freezes() {
        let g = PropertyGraph::new();
        let cg = ColumnarGraph::freeze(&g);
        assert_eq!(cg.thaw(), g);
        assert!(cg.labels_present().is_empty());
    }
}
