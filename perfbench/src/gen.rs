//! Seeded input generation. Everything a workload sends is derived from
//! the `--seed` argument here, before any timed section starts.

use std::collections::BTreeSet;

use pg_datagen::{GraphGen, GraphGenParams};
use pg_schema::{PgSchema, Rule};
use pgraph::{EdgeId, GraphDelta, NodeId, PropertyGraph, Value};

/// SplitMix64: a tiny deterministic generator for schedules and sites.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-purpose `stream`, so two
    /// consumers of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The social schema every generated graph conforms to before defects
/// are injected.
pub fn social_sdl() -> &'static str {
    pg_datagen::schemagen::social_schema()
}

/// Parses [`social_sdl`].
pub fn social_schema() -> PgSchema {
    PgSchema::parse(social_sdl()).expect("the social schema parses")
}

/// A graph of the social schema with `nodes_per_type` nodes per type,
/// drawn by `GraphGen` from `seed`.
pub fn social_graph(schema: &PgSchema, nodes_per_type: usize, seed: u64) -> PropertyGraph {
    GraphGen::new(
        schema,
        GraphGenParams {
            nodes_per_type,
            seed,
            ..GraphGenParams::default()
        },
    )
    .generate()
}

/// Live elements (`|V| + |E|`).
pub fn elements(g: &PropertyGraph) -> usize {
    g.node_count() + g.edge_count()
}

/// The defect kinds of `pg_datagen::Defect` that the social schema has a
/// site for: it declares no `@uniqueForTarget`, `@requiredForTarget` or
/// `@required` relationship, so DS3, DS4 and DS6 cannot be injected.
pub const INJECTED_RULES: [Rule; 12] = [
    Rule::WS1,
    Rule::WS2,
    Rule::WS3,
    Rule::WS4,
    Rule::DS1,
    Rule::DS2,
    Rule::DS5,
    Rule::DS7,
    Rule::SS1,
    Rule::SS2,
    Rule::SS3,
    Rule::SS4,
];

/// Injects `count` defects at random sites of a social-schema graph,
/// cycling through [`INJECTED_RULES`], and returns the rules injected.
/// Unlike `pg_datagen::inject`, which always mutates the first
/// applicable site, this spreads the defects over the whole graph. It
/// only adds elements, so element ids stay dense.
pub fn inject_defects(g: &mut PropertyGraph, count: usize, rng: &mut Rng) -> BTreeSet<Rule> {
    let by_label = |g: &PropertyGraph, label: &str| -> Vec<NodeId> {
        g.nodes()
            .filter(|n| n.label() == label)
            .map(|n| n.id)
            .collect()
    };
    let users = by_label(g, "User");
    let posts = by_label(g, "Post");
    let threads = by_label(g, "Thread");
    let follows: Vec<EdgeId> = g
        .edges()
        .filter(|e| e.label() == "follows")
        .map(|e| e.id)
        .collect();
    let mut injected = BTreeSet::new();
    for i in 0..count {
        let rule = INJECTED_RULES[i % INJECTED_RULES.len()];
        let u = rng.pick(&users);
        let p = rng.pick(&posts);
        let ok = match rule {
            Rule::WS1 => {
                g.set_node_property(u, "login", Value::Int(7));
                true
            }
            Rule::WS2 => {
                g.set_edge_property(rng.pick(&follows), "since", Value::from("soon"));
                true
            }
            Rule::WS3 => add_follows(g, u, p),
            Rule::WS4 => {
                let t = rng.pick(&threads);
                g.add_edge(p, t, "inThread").is_ok() && g.add_edge(p, t, "inThread").is_ok()
            }
            Rule::DS1 => {
                let (s, t) = g
                    .edge_endpoints(rng.pick(&follows))
                    .expect("generated edges are live");
                add_follows(g, s, t)
            }
            Rule::DS2 => add_follows(g, u, u),
            Rule::DS5 => g.remove_node_property(p, "title").is_some(),
            Rule::DS7 => {
                let other = rng.pick(&users);
                let id = g.node_property(other, "id").cloned();
                match id {
                    Some(id) if other != u => {
                        g.set_node_property(u, "id", id);
                        true
                    }
                    _ => false,
                }
            }
            Rule::SS1 => g.set_node_label(rng.pick(&threads), "Ghost").is_ok(),
            Rule::SS2 => {
                g.set_node_property(p, "extra", Value::from("x"));
                true
            }
            Rule::SS3 => {
                g.set_edge_property(rng.pick(&follows), "note", Value::from("x"));
                true
            }
            Rule::SS4 => g.add_edge(u, p, "likes").is_ok(),
            _ => unreachable!("only INJECTED_RULES are drawn"),
        };
        if ok {
            injected.insert(rule);
        }
    }
    injected
}

/// Adds a `follows` edge carrying its mandatory `since` property, so the
/// edge breaks only the rule the caller aims at.
fn add_follows(g: &mut PropertyGraph, s: NodeId, t: NodeId) -> bool {
    match g.add_edge(s, t, "follows") {
        Ok(e) => {
            g.set_edge_property(e, "since", Value::Int(1));
            true
        }
        Err(_) => false,
    }
}

/// The `{"schema": …, "graph": …}` envelope `POST /validate` and
/// `POST /sessions` take.
pub fn envelope(sdl: &str, g: &PropertyGraph) -> String {
    let mut out = String::from("{\"schema\": ");
    out.push_str(&crate::out::json_string(sdl));
    out.push_str(", \"graph\": ");
    out.push_str(&pgraph::json::to_json(g));
    out.push('}');
    out
}

/// The stationary delta cycle one durable session runs. Every delta has
/// four ops and mixes property writes with structural adds and removes;
/// every breaking op is repaired by the next delta to the same session,
/// so the outstanding-violation count alternates between the injected
/// base and base + 1 instead of drifting.
///
/// * even step: break `nicknames` of a user (WS1), add a `Post` node
///   with its required `id` and `title`;
/// * odd step: repair `nicknames`, add an `authored` edge to the new
///   post, rewrite the user's `login`, remove the post again (which
///   cascades the edge).
#[derive(Debug, Clone)]
pub struct DeltaCycle {
    session: u64,
    users: Vec<NodeId>,
    /// `node_index_bound` of the session's graph: the id the next
    /// `AddNode` receives.
    next_node: usize,
    /// Deltas generated so far.
    pub step: u64,
}

impl DeltaCycle {
    /// A cycle over `users` of a session whose graph has node index
    /// bound `next_node`. The users must carry no injected defect on
    /// `nicknames` or `login`.
    pub fn new(session: u64, users: Vec<NodeId>, next_node: usize) -> DeltaCycle {
        DeltaCycle {
            session,
            users,
            next_node,
            step: 0,
        }
    }

    /// The next delta of the cycle.
    pub fn next_delta(&mut self) -> GraphDelta {
        let step = self.step;
        let user = self.users[(step / 2) as usize % self.users.len()];
        self.step += 1;
        if step.is_multiple_of(2) {
            let post = NodeId::from_index(self.next_node);
            self.next_node += 1;
            GraphDelta::new()
                .set_node_property(user, "nicknames", Value::Int(step as i64))
                .add_node("Post")
                .set_node_property(
                    post,
                    "id",
                    Value::Id(format!("bench-{}-{step}", self.session)),
                )
                .set_node_property(post, "title", Value::from("bench"))
        } else {
            let post = NodeId::from_index(self.next_node - 1);
            GraphDelta::new()
                .set_node_property(
                    user,
                    "nicknames",
                    Value::List(vec![Value::from(format!("n{step}"))]),
                )
                .add_edge(user, post, "authored")
                .set_node_property(user, "login", Value::from(format!("login-{step}")))
                .remove_node(post)
        }
    }
}

/// Users of `g` that the defect injector left untouched (same `login`
/// and no extra edges), the ones a [`DeltaCycle`] may toggle without
/// repairing an injected defect.
pub fn clean_users(original: &PropertyGraph, injected: &PropertyGraph, want: usize) -> Vec<NodeId> {
    original
        .nodes()
        .filter(|n| n.label() == "User")
        .map(|n| n.id)
        .filter(|&u| {
            let same =
                |name: &str| original.node_property(u, name) == injected.node_property(u, name);
            same("login")
                && same("id")
                && injected.node_label(u) == Some("User")
                && original.out_edges(u).count() == injected.out_edges(u).count()
                && original.in_edges(u).count() == injected.in_edges(u).count()
        })
        .take(want)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_schema::{validate, IncrementalEngine, ValidationOptions};

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn every_injected_rule_is_reported() {
        let schema = social_schema();
        let mut g = social_graph(&schema, 40, 3);
        assert!(validate(&g, &schema, &ValidationOptions::default()).conforms());
        let injected = inject_defects(&mut g, 36, &mut Rng::new(3, 0));
        assert_eq!(injected.len(), INJECTED_RULES.len());
        let counts = validate(&g, &schema, &ValidationOptions::default()).counts();
        for rule in injected {
            assert!(counts.contains_key(&rule), "{rule} not reported");
        }
    }

    #[test]
    fn delta_cycle_keeps_violations_stationary() {
        let schema = social_schema();
        let original = social_graph(&schema, 30, 5);
        let mut g = original.clone();
        inject_defects(&mut g, 6, &mut Rng::new(5, 0));
        let users = clean_users(&original, &g, 8);
        assert!(!users.is_empty());
        let mut cycle = DeltaCycle::new(1, users, g.node_index_bound());
        let mut engine = IncrementalEngine::new(g, &schema, &ValidationOptions::default());
        let base = engine.report().len();
        for step in 0..40 {
            engine
                .apply(&cycle.next_delta())
                .expect("cycle deltas apply");
            let expect = if step % 2 == 0 { base + 1 } else { base };
            assert_eq!(engine.report().len(), expect, "step {step}");
        }
    }
}
