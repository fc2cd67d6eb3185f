//! Cross-reference checker for the repo's documentation: every relative
//! markdown link in the tracked docs must point at a file that exists,
//! and every `#fragment` must match a heading in the target file
//! (GitHub's slug rules). Keeps docs/replication.md, docs/operations.md,
//! README and DESIGN from rotting apart as they link to each other. The
//! README's example `pgschema` command lines are checked against the
//! flags each command accepts.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The documentation files under the checker's contract. ISSUE/PAPER/
/// SNIPPETS are scaffolding, not documentation, and stay out.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("README.md"),
        root.join("DESIGN.md"),
        root.join("EXPERIMENTS.md"),
        root.join("ROADMAP.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files
}

/// GitHub's heading-to-anchor slug: lowercase, spaces to hyphens,
/// everything that is not alphanumeric / hyphen / underscore dropped.
fn slugify(heading: &str) -> String {
    let mut slug = String::new();
    for ch in heading.trim().chars() {
        match ch {
            ' ' => slug.push('-'),
            c if c.is_alphanumeric() || c == '-' || c == '_' => {
                slug.extend(c.to_lowercase());
            }
            _ => {}
        }
    }
    slug
}

/// The anchor set of a markdown file: one slug per ATX heading, with
/// GitHub's `-1`, `-2` suffixes for repeats. Inline code spans keep
/// their text (backticks are stripped by slugify's filter).
fn anchors(text: &str) -> HashSet<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = HashSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#');
        if !heading.starts_with(' ') && !heading.is_empty() {
            continue; // #![attr] or similar, not a heading
        }
        let base = slugify(heading);
        let repeats = seen.iter().filter(|s| **s == base).count();
        seen.push(base.clone());
        if repeats == 0 {
            out.insert(base);
        } else {
            out.insert(format!("{base}-{repeats}"));
        }
    }
    out
}

/// Extracts `](target)` link targets, skipping fenced code blocks and
/// inline code spans.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Strip inline code spans so `[x](y)` inside backticks is not a
        // link.
        let mut stripped = String::new();
        let mut in_code = false;
        for ch in line.chars() {
            if ch == '`' {
                in_code = !in_code;
            } else if !in_code {
                stripped.push(ch);
            }
        }
        let bytes = stripped.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                if let Some(end) = stripped[i + 2..].find(')') {
                    targets.push(stripped[i + 2..i + 2 + end].to_string());
                    i += 2 + end;
                    continue;
                }
            }
            i += 1;
        }
    }
    targets
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = repo_root();
    let mut problems = Vec::new();
    for file in doc_files(&root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().unwrap().to_path_buf();
        let name = file.strip_prefix(&root).unwrap().display().to_string();
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f.to_string())),
                None => (target.as_str(), None),
            };
            let resolved = if path_part.is_empty() {
                file.clone() // same-file `#anchor` link
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                problems.push(format!("{name}: broken link `{target}`"));
                continue;
            }
            if let Some(fragment) = fragment {
                if resolved.extension().is_some_and(|e| e == "md") {
                    let target_text = std::fs::read_to_string(&resolved).unwrap();
                    if !anchors(&target_text).contains(&fragment) {
                        problems.push(format!(
                            "{name}: link `{target}` points at a heading that does not exist"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        problems.is_empty(),
        "broken doc links:\n{}",
        problems.join("\n")
    );
}

/// The `pgschema <cmd> …` invocations in a markdown file's shell code
/// fences (```` ```bash ````/```` ```sh ````), as argument lists after
/// the binary name: `\` continuations are joined and `# comments`
/// dropped. Lines that only mention the binary (`cargo run --bin
/// pgschema -- …`, `pgload … ./pgschema`) are skipped.
fn cli_invocations(text: &str) -> Vec<Vec<String>> {
    let mut invocations = Vec::new();
    let mut fence: Option<bool> = None; // Some(is_shell) inside a fence
    let mut joined = String::new();
    for line in text.lines() {
        if let Some(info) = line.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(matches!(info.trim(), "bash" | "sh")),
            };
            joined.clear();
            continue;
        }
        if fence != Some(true) {
            continue;
        }
        let code = line.split(" #").next().unwrap_or("");
        if code.trim_start().starts_with('#') {
            continue;
        }
        if let Some(head) = code.trim_end().strip_suffix('\\') {
            joined.push_str(head);
            joined.push(' ');
            continue;
        }
        joined.push_str(code);
        let tokens: Vec<&str> = joined.split_whitespace().collect();
        let binary = tokens
            .iter()
            .position(|t| *t == "pgschema" || t.ends_with("/pgschema"));
        if let Some(ix) = binary {
            let args = &tokens[ix + 1..];
            if args.first().is_some_and(|cmd| !cmd.starts_with('-')) {
                invocations.push(args.iter().map(|t| t.to_string()).collect());
            }
        }
        joined.clear();
    }
    invocations
}

#[test]
fn readme_cli_flags_are_accepted_by_their_commands() {
    // Every command parses its flags before touching a file or a socket,
    // and stops at the first unknown one. Appending a flag no command
    // knows therefore makes each run fail fast; when the README's own
    // flags are all accepted, the error names the appended probe.
    const PROBE: &str = "--no-such-flag-probe";
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let invocations = cli_invocations(&readme);
    assert!(
        invocations.len() >= 20,
        "README command lines not found: {invocations:?}"
    );
    let mut problems = Vec::new();
    for args in invocations {
        let out = Command::new(env!("CARGO_BIN_EXE_pgschema"))
            .args(&args)
            .arg(PROBE)
            .output()
            .expect("pgschema runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.success() || !stderr.contains(&format!("unknown flag {PROBE}")) {
            problems.push(format!("`pgschema {}`: {}", args.join(" "), stderr.trim()));
        }
    }
    assert!(
        problems.is_empty(),
        "README command lines the CLI rejects:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_replication_docs_are_cross_linked() {
    // The spec, the runbook, the README serving section and DESIGN must
    // reference each other — a reader landing on any of them finds the
    // rest.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("docs/replication.md") && readme.contains("docs/operations.md"),
        "README links the replication spec and the runbook"
    );
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    assert!(
        design.contains("docs/replication.md"),
        "DESIGN links the replication spec"
    );
    let spec = std::fs::read_to_string(root.join("docs/replication.md")).unwrap();
    assert!(spec.contains("operations.md"), "the spec links the runbook");
    let runbook = std::fs::read_to_string(root.join("docs/operations.md")).unwrap();
    assert!(
        runbook.contains("replication.md"),
        "the runbook links the spec"
    );
}

#[test]
fn the_schema_language_docs_are_cross_linked() {
    // The second frontend spans the README overview, the DESIGN
    // lowering spec, the replication spec's language-tag rule and the
    // E5f experiment. Each must point a reader onward.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("## Schema languages"),
        "README has the schema-languages section"
    );
    assert!(
        readme.contains("DESIGN.md#pg-schema-frontend") && readme.contains("EXPERIMENTS.md#e5f"),
        "README links the lowering spec and the E5f experiment"
    );
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    assert!(
        design.contains("## PG-Schema frontend")
            && design.contains("### Lowering table")
            && design.contains("### Unsupported-construct policy"),
        "DESIGN documents the frontend, its lowering table and the \
         out-of-fragment policy"
    );
    assert!(
        design.contains("docs/replication.md#schemachange-body"),
        "DESIGN links the SchemaChange record the pragma rides in"
    );
    let spec = std::fs::read_to_string(root.join("docs/replication.md")).unwrap();
    assert!(
        spec.contains("# schema-language:"),
        "the replication spec documents the language tag pragma"
    );
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    assert!(
        experiments.contains("## E5f"),
        "EXPERIMENTS has the second-frontend table"
    );
}

#[test]
fn the_migration_docs_are_cross_linked() {
    // The migration story spans four documents: the README overview,
    // the DESIGN rationale, the runbook's rollout procedure and the
    // spec's SchemaChange record. Each must point a reader onward.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("docs/operations.md#live-schema-migration")
            && readme.contains("docs/replication.md#schemachange-body"),
        "README links the migration runbook and the SchemaChange record layout"
    );
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    assert!(
        design.contains("## Live migration"),
        "DESIGN documents the migration subsystem"
    );
    let runbook = std::fs::read_to_string(root.join("docs/operations.md")).unwrap();
    assert!(
        runbook.contains("## Live schema migration") && runbook.contains("SchemaChange"),
        "the runbook has the migration section and names the WAL record"
    );
    let spec = std::fs::read_to_string(root.join("docs/replication.md")).unwrap();
    assert!(
        spec.contains("### SchemaChange body"),
        "the spec documents the SchemaChange body layout"
    );
}
