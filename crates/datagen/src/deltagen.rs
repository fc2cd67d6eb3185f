//! Random mutation workloads over live graphs.
//!
//! [`DeltaGen`] draws [`GraphDelta`]s that are **conflict-free by
//! construction** against a given graph: every op references an element
//! that is live at the point the op executes, so
//! [`GraphDelta::apply_to`] never fails. This is what the incremental
//! benchmark (E2i) and the engine-agreement property test feed
//! to [`pg_schema::IncrementalEngine`].
//!
//! Conflict-freedom without cloning the graph relies on the dense
//! continuation-id contract documented on [`GraphDelta`]: the `k`-th
//! `AddNode` of a delta creates `NodeId::from_index(bound + k)` where
//! `bound` is the graph's [`node_index_bound`] at apply time (edges
//! analogously). The generator predicts those ids, so later ops in the
//! same delta can mutate, connect, relabel or remove elements the delta
//! itself creates. Removing a node also retires its incident edges from
//! the generator's live set, mirroring the cascade in `apply_to`.
//!
//! Ops are drawn schema-aware: property writes pick declared attribute
//! fields and (usually) well-typed values, new edges pick declared
//! relationship fields with (usually) subtype-correct targets. A tunable
//! fraction ([`DeltaGenParams::p_break`]) of writes is deliberately
//! ill-typed or mis-targeted, so a generated sequence both introduces
//! and repairs violations — exactly the churn an incremental engine has
//! to track.
//!
//! [`node_index_bound`]: PropertyGraph::node_index_bound

use gql_schema::{BuiltinScalar, ScalarInfo, WrappedType};
use pg_schema::PgSchema;
use pgraph::{EdgeId, GraphDelta, NodeId, PropertyGraph, Value};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters for [`DeltaGen`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaGenParams {
    /// Ops per generated delta.
    pub ops: usize,
    /// Probability an op is structural (add/remove node/edge) rather
    /// than a property write or relabel.
    pub p_structural: f64,
    /// Within structural ops, probability of a removal over an addition.
    pub p_remove: f64,
    /// Probability a property write is deliberately ill-typed, or an
    /// added edge deliberately mis-targeted (violation churn).
    pub p_break: f64,
    /// Base RNG seed for [`DeltaGen::generate`].
    pub seed: u64,
}

impl Default for DeltaGenParams {
    fn default() -> Self {
        DeltaGenParams {
            ops: 16,
            p_structural: 0.3,
            p_remove: 0.35,
            p_break: 0.25,
            seed: 0,
        }
    }
}

/// Draws conflict-free random [`GraphDelta`]s against a schema and a
/// target graph. See the [module docs](self) for the guarantees.
#[derive(Debug, Clone, Copy)]
pub struct DeltaGen<'s> {
    schema: &'s PgSchema,
    params: DeltaGenParams,
}

/// Live elements as the generated delta would leave them, tracked
/// without mutating (or cloning) the target graph.
struct LiveSet {
    /// `(id, current label)` of every live node.
    nodes: Vec<(NodeId, String)>,
    /// `(id, source, target)` of every live edge.
    edges: Vec<(EdgeId, NodeId, NodeId)>,
    next_node: usize,
    next_edge: usize,
}

impl LiveSet {
    fn of(g: &PropertyGraph) -> Self {
        LiveSet {
            nodes: g.nodes().map(|n| (n.id, n.label().to_owned())).collect(),
            edges: g.edges().map(|e| (e.id, e.source(), e.target())).collect(),
            next_node: g.node_index_bound(),
            next_edge: g.edge_index_bound(),
        }
    }

    fn add_node(&mut self, label: String) -> NodeId {
        let id = NodeId::from_index(self.next_node);
        self.next_node += 1;
        self.nodes.push((id, label));
        id
    }

    fn add_edge(&mut self, source: NodeId, target: NodeId) -> EdgeId {
        let id = EdgeId::from_index(self.next_edge);
        self.next_edge += 1;
        self.edges.push((id, source, target));
        id
    }

    /// Retires a node and (mirroring the `apply_to` cascade) its
    /// incident edges.
    fn remove_node(&mut self, ix: usize) -> NodeId {
        let (id, _) = self.nodes.swap_remove(ix);
        self.edges.retain(|&(_, s, t)| s != id && t != id);
        id
    }
}

impl<'s> DeltaGen<'s> {
    /// A generator for mutations of graphs typed against `schema`.
    pub fn new(schema: &'s PgSchema, params: DeltaGenParams) -> Self {
        DeltaGen { schema, params }
    }

    /// Draws one delta against `g` using [`DeltaGenParams::seed`].
    pub fn generate(&self, g: &PropertyGraph) -> GraphDelta {
        self.generate_seeded(g, self.params.seed)
    }

    /// Draws one delta against `g` from an explicit seed — use
    /// ascending seeds for a reproducible mutation *sequence* (apply
    /// each delta before generating the next, so the live set the
    /// generator predicts matches the graph).
    pub fn generate_seeded(&self, g: &PropertyGraph, seed: u64) -> GraphDelta {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = LiveSet::of(g);
        let mut delta = GraphDelta::new();
        let mut uniq = (seed as usize).wrapping_mul(1_000_003);
        for _ in 0..self.params.ops {
            uniq += 1;
            let op_is_structural = live.nodes.is_empty() || rng.gen_bool(self.params.p_structural);
            if op_is_structural {
                delta = self.structural_op(delta, &mut live, &mut rng, uniq);
            } else {
                delta = self.local_op(delta, &mut live, &mut rng, uniq);
            }
        }
        delta
    }

    fn structural_op(
        &self,
        delta: GraphDelta,
        live: &mut LiveSet,
        rng: &mut StdRng,
        uniq: usize,
    ) -> GraphDelta {
        let removal = !live.nodes.is_empty() && rng.gen_bool(self.params.p_remove);
        if removal {
            if !live.edges.is_empty() && rng.gen_bool(0.6) {
                let ix = rng.gen_range(0..live.edges.len());
                let (e, _, _) = live.edges.swap_remove(ix);
                return delta.remove_edge(e);
            }
            let ix = rng.gen_range(0..live.nodes.len());
            return delta.remove_node(live.remove_node(ix));
        }
        // Addition: an edge needs a live source with a declared
        // relationship field; fall back to a node otherwise.
        if !live.nodes.is_empty() && rng.gen_bool(0.5) {
            let six = rng.gen_range(0..live.nodes.len());
            let (source, ref slabel) = live.nodes[six];
            let rels = self
                .schema
                .label_type(slabel)
                .map_or(&[][..], |t| self.schema.relationships(t));
            if let Some(rel) = rels.choose(rng) {
                let target = self.pick_target(live, rng, &rel.ty);
                live.add_edge(source, target);
                return delta.add_edge(source, target, rel.name.clone());
            }
        }
        let label = self.random_label(rng, uniq);
        live.add_node(label.clone());
        delta.add_node(label)
    }

    fn local_op(
        &self,
        delta: GraphDelta,
        live: &mut LiveSet,
        rng: &mut StdRng,
        uniq: usize,
    ) -> GraphDelta {
        let nix = rng.gen_range(0..live.nodes.len());
        let (node, ref label) = live.nodes[nix];
        let on_edges = !live.edges.is_empty() && rng.gen_bool(0.2);
        if on_edges {
            let &(edge, _, _) = live.edges.choose(rng).expect("non-empty");
            if rng.gen_bool(0.75) {
                return delta.set_edge_property(edge, "since", Value::Int(uniq as i64));
            }
            return delta.remove_edge_property(edge, "since");
        }
        let attrs = self
            .schema
            .label_type(label)
            .map_or(&[][..], |t| self.schema.attributes(t));
        let roll = rng.gen_range(0..10u32);
        match roll {
            0 => {
                let label = self.random_label(rng, uniq);
                live.nodes[nix].1 = label.clone();
                delta.set_node_label(node, label)
            }
            1 | 2 => match attrs.choose(rng) {
                Some(attr) => delta.remove_node_property(node, attr.name.clone()),
                None => delta.remove_node_property(node, "p0"),
            },
            _ => match attrs.choose(rng) {
                Some(attr) => {
                    let value = if rng.gen_bool(self.params.p_break) {
                        self.breaking_value(&attr.ty)
                    } else {
                        self.value_for(&attr.ty, uniq)
                    };
                    delta.set_node_property(node, attr.name.clone(), value)
                }
                // No declared attributes: an unjustified property (SS2).
                None => delta.set_node_property(node, "p0", Value::Int(uniq as i64)),
            },
        }
    }

    /// A target for a new edge: subtype-correct for `ty` unless the
    /// break roll says otherwise (or no legal target is live).
    fn pick_target(&self, live: &LiveSet, rng: &mut StdRng, ty: &WrappedType) -> NodeId {
        if !rng.gen_bool(self.params.p_break) {
            let legal: Vec<NodeId> = live
                .nodes
                .iter()
                .filter(|(_, l)| self.schema.label_subtype_wrapped(l, ty))
                .map(|&(id, _)| id)
                .collect();
            if let Some(&id) = legal.choose(rng) {
                return id;
            }
        }
        live.nodes.choose(rng).expect("non-empty").0
    }

    /// A label for a new or relabelled node: usually a declared object
    /// type, occasionally unknown (SS1 churn).
    fn random_label(&self, rng: &mut StdRng, uniq: usize) -> String {
        let s = self.schema.schema();
        let types: Vec<_> = s.object_types().collect();
        match types.choose(rng) {
            Some(&t) if !rng.gen_bool(self.params.p_break / 4.0) => s.type_name(t).to_owned(),
            _ => format!("Unknown{}", uniq % 3),
        }
    }

    /// A well-typed value for `ty` (mirrors `GraphGen`'s construction).
    fn value_for(&self, ty: &WrappedType, uniq: usize) -> Value {
        let s = self.schema.schema();
        let scalar = match s.scalar_info(ty.base) {
            Some(ScalarInfo::Builtin(b)) => match b {
                BuiltinScalar::Int => Value::Int((uniq as i64) % (i32::MAX as i64)),
                BuiltinScalar::Float => Value::Float(uniq as f64 * 0.25),
                BuiltinScalar::String => Value::String(format!("d{uniq}")),
                BuiltinScalar::Boolean => Value::Bool(uniq.is_multiple_of(2)),
                BuiltinScalar::Id => Value::Id(format!("did{uniq}")),
            },
            Some(ScalarInfo::Enum(symbols)) if !symbols.is_empty() => {
                Value::Enum(symbols[uniq % symbols.len()].clone())
            }
            _ => Value::String(format!("custom{uniq}")),
        };
        if ty.is_list() {
            Value::List(vec![scalar])
        } else {
            scalar
        }
    }

    /// A value certain to violate WS1 for `ty`: wrong scalar kind, and
    /// unwrapped where a list is expected.
    fn breaking_value(&self, ty: &WrappedType) -> Value {
        let s = self.schema.schema();
        match s.scalar_info(ty.base) {
            Some(ScalarInfo::Builtin(BuiltinScalar::Int)) => Value::String("not-an-int".to_owned()),
            _ => Value::Int(-1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphgen::{GraphGen, GraphGenParams};
    use crate::schemagen::social_schema;

    fn setup() -> (PgSchema, PropertyGraph) {
        let schema = PgSchema::parse(social_schema()).unwrap();
        let gen = GraphGen::new(
            &schema,
            GraphGenParams {
                nodes_per_type: 12,
                seed: 7,
                ..Default::default()
            },
        );
        let g = gen.generate_conforming(3).expect("social graph generable");
        (schema, g)
    }

    #[test]
    fn generated_deltas_apply_cleanly() {
        let (schema, g) = setup();
        for seed in 0..20 {
            let gen = DeltaGen::new(
                &schema,
                DeltaGenParams {
                    ops: 40,
                    seed,
                    ..Default::default()
                },
            );
            let delta = gen.generate(&g);
            assert_eq!(delta.len(), 40);
            let mut h = g.clone();
            delta.apply_to(&mut h).unwrap_or_else(|e| {
                panic!("seed {seed}: conflict-free delta failed to apply: {e}")
            });
        }
    }

    #[test]
    fn sequences_apply_cleanly_when_interleaved() {
        let (schema, mut g) = setup();
        let gen = DeltaGen::new(
            &schema,
            DeltaGenParams {
                ops: 25,
                p_structural: 0.6,
                p_remove: 0.5,
                ..Default::default()
            },
        );
        for seed in 100..110 {
            let delta = gen.generate_seeded(&g, seed);
            delta
                .apply_to(&mut g)
                .unwrap_or_else(|e| panic!("step {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (schema, g) = setup();
        let gen = DeltaGen::new(&schema, DeltaGenParams::default());
        let a = gen.generate_seeded(&g, 42);
        let b = gen.generate_seeded(&g, 42);
        assert_eq!(a.ops(), b.ops());
        let c = gen.generate_seeded(&g, 43);
        assert_ne!(a.ops(), c.ops());
    }

    #[test]
    fn deltas_churn_violations_both_ways() {
        let (schema, mut g) = setup();
        let gen = DeltaGen::new(
            &schema,
            DeltaGenParams {
                ops: 30,
                p_break: 0.5,
                ..Default::default()
            },
        );
        let mut counts = Vec::new();
        for seed in 0..12 {
            gen.generate_seeded(&g, seed).apply_to(&mut g).unwrap();
            let report = pg_schema::validate(&g, &schema, &pg_schema::ValidationOptions::default());
            counts.push(report.violations().len());
        }
        assert!(
            counts.windows(2).any(|w| w[1] > w[0]),
            "no delta ever introduced a violation: {counts:?}"
        );
        assert!(
            counts.windows(2).any(|w| w[1] < w[0]),
            "no delta ever repaired a violation: {counts:?}"
        );
    }
}
