//! The three satisfaction notions of §5 are separately checkable:
//! weak (Def. 5.1) ⊇ weak+directives (Def. 5.2) ⊇ strong (Def. 5.3).

use pg_schema::{validate, Engine, PgSchema, Rule, RuleFamily, ValidationOptions};
use pgraph::{GraphBuilder, PropertyGraph, Value};

fn schema() -> PgSchema {
    PgSchema::parse(
        r#"
        type User @key(fields: ["id"]) {
            id: ID! @required
            login: String! @required
            follows: [User] @distinct @noLoops
        }
        "#,
    )
    .unwrap()
}

/// A graph violating one rule from each family:
/// WS1 (login: Int), DS5 (missing id), SS2 (ghost property).
fn tri_violating_graph() -> PropertyGraph {
    GraphBuilder::new()
        .node("u", "User")
        .prop("u", "login", 42i64)
        .prop("u", "ghost", true)
        .build()
        .unwrap()
}

fn options(weak: bool, directives: bool, strong: bool, engine: Engine) -> ValidationOptions {
    ValidationOptions::builder()
        .engine(engine)
        .families(weak, directives, strong)
        .build()
}

#[test]
fn each_family_is_independently_selectable() {
    let s = schema();
    let g = tri_violating_graph();
    for engine in [Engine::Naive, Engine::Indexed, Engine::Incremental] {
        let weak = validate(&g, &s, &options(true, false, false, engine));
        assert_eq!(weak.len(), 1, "{weak}");
        assert_eq!(weak.violations()[0].rule(), Rule::WS1);

        let dirs = validate(&g, &s, &options(false, true, false, engine));
        assert_eq!(dirs.len(), 1, "{dirs}");
        assert_eq!(dirs.violations()[0].rule(), Rule::DS5);

        let strong = validate(&g, &s, &options(false, false, true, engine));
        assert_eq!(strong.len(), 1, "{strong}");
        assert_eq!(strong.violations()[0].rule(), Rule::SS2);
    }
}

#[test]
fn full_run_is_the_union_of_the_families() {
    let s = schema();
    let g = tri_violating_graph();
    for engine in [Engine::Naive, Engine::Indexed, Engine::Incremental] {
        let full = validate(&g, &s, &ValidationOptions::with_engine(engine));
        assert_eq!(full.len(), 3, "{full}");
        let mut families: Vec<RuleFamily> = full
            .violations()
            .iter()
            .map(|v| v.rule().family())
            .collect();
        families.dedup();
        assert_eq!(
            families,
            vec![RuleFamily::Weak, RuleFamily::Directives, RuleFamily::Strong]
        );
    }
}

#[test]
fn weak_satisfaction_ignores_justification() {
    // A graph full of unknown labels/properties weakly satisfies any
    // schema (no typed constraints apply to unknown elements).
    let s = schema();
    let g = GraphBuilder::new()
        .node("x", "Alien")
        .prop("x", "anything", Value::from(vec![1i64, 2]))
        .node("y", "Alien")
        .edge("x", "y", "beams")
        .build()
        .unwrap();
    let weak = validate(&g, &s, &ValidationOptions::weak_only());
    assert!(weak.conforms(), "{weak}");
    let full = validate(&g, &s, &ValidationOptions::default());
    assert!(!full.conforms());
    // SS1 ×2, SS2 ×1, SS4 ×1.
    assert_eq!(full.len(), 4, "{full}");
}

#[test]
fn directive_constraints_apply_even_on_weakly_invalid_graphs() {
    // DS rules fire independently of WS rules.
    let s = schema();
    let mut g = GraphBuilder::new()
        .node("u", "User")
        .prop("u", "id", Value::Id("1".into()))
        .prop("u", "login", "alice")
        .edge("u", "u", "follows") // DS2 loop
        .build()
        .unwrap();
    let u = g.node_ids().next().unwrap();
    g.set_node_property(u, "login", Value::Int(9)); // WS1 too
    let report = validate(&g, &s, &ValidationOptions::default());
    let rules: Vec<Rule> = report.counts().keys().copied().collect();
    assert_eq!(rules, vec![Rule::WS1, Rule::DS2]);
}

#[test]
fn max_violations_truncates_on_every_engine() {
    let s = schema();
    let g = tri_violating_graph();
    for engine in [Engine::Naive, Engine::Indexed, Engine::Incremental] {
        let opts = ValidationOptions::builder()
            .engine(engine)
            .max_violations(1)
            .build();
        let r = validate(&g, &s, &opts);
        assert!(r.truncated(), "{engine:?}");
        assert!(r.len() <= 1, "{engine:?}: {r}");
        assert!(!r.conforms());
        // The unlimited run still sees all three violations.
        let full = validate(&g, &s, &ValidationOptions::with_engine(engine));
        assert_eq!(full.len(), 3, "{engine:?}");
        assert!(!full.truncated());
        // A zero limit checks nothing, so it must not certify conformance.
        let zero = ValidationOptions::builder()
            .engine(engine)
            .max_violations(0)
            .build();
        let r = validate(&g, &s, &zero);
        assert!(r.is_empty() && r.truncated() && !r.conforms(), "{engine:?}");
    }
}

#[test]
fn metrics_are_opt_in_and_engine_tagged() {
    let s = schema();
    let g = tri_violating_graph();
    let silent = validate(&g, &s, &ValidationOptions::default());
    assert!(silent.metrics().is_none());
    for (engine, name) in [
        (Engine::Naive, "naive"),
        (Engine::Indexed, "indexed"),
        (Engine::Incremental, "incremental"),
    ] {
        let opts = ValidationOptions::builder()
            .engine(engine)
            .collect_metrics(true)
            .build();
        let r = validate(&g, &s, &opts);
        assert_eq!(r, silent, "metrics must not change the verdict");
        let m = r.metrics().expect("metrics were requested");
        assert_eq!(m.engine, name);
        assert_eq!(m.families.len(), 3, "{engine:?}: {m}");
        assert!(m.nodes_scanned >= 1, "{engine:?}");
        let attributed: usize = m.families.iter().map(|f| f.violations).sum();
        assert_eq!(attributed, r.len(), "{engine:?}: {m}");
        // The JSON rendering carries the metrics block.
        assert!(r.to_json().contains("\"metrics\""));
    }
}

#[test]
fn report_accessors_are_consistent() {
    let s = schema();
    let g = tri_violating_graph();
    let report = validate(&g, &s, &ValidationOptions::default());
    assert_eq!(report.violations().len(), report.len());
    assert_eq!(report.counts().values().sum::<usize>(), report.len());
    for rule in Rule::ALL {
        assert_eq!(
            report.by_rule(rule).count(),
            report.counts().get(&rule).copied().unwrap_or(0)
        );
    }
    assert!(!report.is_empty());
}
