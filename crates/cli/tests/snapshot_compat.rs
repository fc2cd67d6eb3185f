//! Snapshot format compatibility: a data directory written by the
//! previous build (legacy `PGS1` snapshots, per-session binary graphs)
//! must open cleanly on this build and validate identically — the
//! canonical engine reports of the legacy decode path and the
//! current mmap (`PGS2`/`PGCS`) path are required to agree byte for
//! byte. A snapshot from a *future* format must fail recovery with an
//! explicit "unsupported snapshot version" error and leave the
//! directory untouched — never a silent fallback and never a torn-tail
//! truncation.

use std::path::Path;

use pg_schema::{validate, Engine, PgSchema, ValidationOptions};
use pg_server::workload::{sample_graph, SCHEMA_SDL};
use pgraph::{binary, snapshot, PropertyGraph};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pgschema-snapcompat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a snapshot file exactly as the previous build's `PGS1`
/// encoder did: CRC frame around `[magic][base_seq][next_session_id]
/// [count]` + per-session `[id][last_seq][deltas_applied][sdl][graph
/// as a u32-length binary element stream][pending flag]`.
fn write_legacy_snapshot(dir: &Path, id: u64, sdl: &str, graph: &PropertyGraph) {
    let graph_bytes = binary::graph_to_bytes(graph);
    let mut entry = Vec::new();
    entry.extend_from_slice(&id.to_le_bytes());
    entry.extend_from_slice(&1u64.to_le_bytes()); // last_seq
    entry.extend_from_slice(&0u64.to_le_bytes()); // deltas_applied
    entry.extend_from_slice(&(sdl.len() as u32).to_le_bytes());
    entry.extend_from_slice(sdl.as_bytes());
    entry.extend_from_slice(&(graph_bytes.len() as u32).to_le_bytes());
    entry.extend_from_slice(&graph_bytes);
    entry.push(0); // no pending migration
    let mut payload = Vec::new();
    payload.extend_from_slice(&pg_store::wire::SNAPSHOT_MAGIC);
    payload.extend_from_slice(&1u64.to_le_bytes()); // base_seq
    payload.extend_from_slice(&(id + 1).to_le_bytes()); // next_session_id
    payload.extend_from_slice(&1u32.to_le_bytes()); // count
    payload.extend_from_slice(&entry);
    let mut file = Vec::new();
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&snapshot::crc32(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    std::fs::write(dir.join("snapshot-000001.snap"), file).unwrap();
}

/// Canonical report bytes of one engine over one graph.
fn canonical_report(graph: &PropertyGraph, schema: &PgSchema, engine: Engine) -> String {
    let mut report = validate(graph, schema, &ValidationOptions::with_engine(engine));
    report.canonicalize();
    report.to_json()
}

#[test]
fn legacy_snapshot_loads_and_agrees_with_mmap_path_byte_for_byte() {
    let graph = sample_graph(40);
    let schema = PgSchema::parse(SCHEMA_SDL).unwrap();

    // Path A: a directory as the previous build left it.
    let legacy_dir = tmp_dir("legacy");
    write_legacy_snapshot(&legacy_dir, 1, SCHEMA_SDL, &graph);
    let (_store_a, recovered_a) =
        pg_store::Store::open(&legacy_dir, pg_store::FsyncPolicy::Never).expect("legacy opens");
    assert_eq!(recovered_a.sessions.len(), 1);
    assert_eq!(recovered_a.info.snapshots_skipped, 0);
    let legacy = &recovered_a.sessions[0];
    assert!(
        !legacy.graph.is_mapped(),
        "legacy snapshots decode eagerly, not zero-copy"
    );
    let legacy_graph = legacy.graph.clone().into_graph().unwrap();

    // Path B: the same session written by this build (PGS2, mmap'd back).
    let current_dir = tmp_dir("current");
    {
        let (store, _) = pg_store::Store::open(&current_dir, pg_store::FsyncPolicy::Never).unwrap();
        store.append_create(1, SCHEMA_SDL, &graph).unwrap();
        let mut compaction = store.try_begin_compaction().unwrap().unwrap();
        compaction.add_session(1, 1, 0, SCHEMA_SDL, &graph, None);
        compaction.finish(2).unwrap();
    }
    let (_store_b, recovered_b) =
        pg_store::Store::open(&current_dir, pg_store::FsyncPolicy::Never).expect("reopens");
    assert_eq!(recovered_b.sessions.len(), 1);
    let mapped = &recovered_b.sessions[0];
    assert!(
        mapped.graph.is_mapped(),
        "a compacted session with no WAL tail recovers zero-copy"
    );
    let mapped_graph = mapped.graph.clone().into_graph().unwrap();
    assert_eq!(legacy_graph, mapped_graph);

    // The engine oracle agrees byte for byte across the two paths.
    for engine in [Engine::Naive, Engine::Indexed, Engine::Incremental] {
        let a = canonical_report(&legacy_graph, &schema, engine);
        let b = canonical_report(&mapped_graph, &schema, engine);
        assert_eq!(a, b, "engine {engine:?} reports diverge across paths");
    }

    let _ = std::fs::remove_dir_all(&legacy_dir);
    let _ = std::fs::remove_dir_all(&current_dir);
}

#[test]
fn handoff_blob_installs_and_bootstraps_zero_copy() {
    let graph = sample_graph(25);
    let src = tmp_dir("handoff-src");
    let blob = {
        let (store, _) = pg_store::Store::open(&src, pg_store::FsyncPolicy::Never).unwrap();
        store.append_create(1, SCHEMA_SDL, &graph).unwrap();
        let mut handoff = store.begin_handoff();
        handoff.add_session(1, 1, 0, SCHEMA_SDL, &graph, None);
        handoff.finish(2)
    };
    let dst = tmp_dir("handoff-dst");
    let _ = std::fs::remove_dir_all(&dst);
    pg_store::install_snapshot(&dst, &blob).expect("installs");
    let (_store, recovered) =
        pg_store::Store::open(&dst, pg_store::FsyncPolicy::Never).expect("bootstraps");
    assert_eq!(recovered.sessions.len(), 1);
    assert!(
        recovered.sessions[0].graph.is_mapped(),
        "bootstrap leaves the graph zero-copy until first use"
    );
    assert_eq!(recovered.sessions[0].graph, graph);
    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&dst);
}

#[test]
fn future_snapshot_version_fails_loudly_and_mutates_nothing() {
    let graph = sample_graph(10);
    let dir = tmp_dir("future");
    {
        let (store, _) = pg_store::Store::open(&dir, pg_store::FsyncPolicy::Never).unwrap();
        store.append_create(1, SCHEMA_SDL, &graph).unwrap();
        let mut compaction = store.try_begin_compaction().unwrap().unwrap();
        compaction.add_session(1, 1, 0, SCHEMA_SDL, &graph, None);
        compaction.finish(2).unwrap();
    }
    // Rewrite the snapshot as an intact file from a future writer:
    // bump the magic to PGS9 and fix up the container CRC.
    let snap_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("compaction wrote a snapshot");
    let mut bytes = std::fs::read(&snap_path).unwrap();
    bytes[8 + 3] = b'9'; // frame header is 8 bytes; magic is payload[0..4]
    let crc = snapshot::crc32(&bytes[8..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap_path, &bytes).unwrap();

    let before: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let err = match pg_store::Store::open(&dir, pg_store::FsyncPolicy::Never) {
        Ok(_) => panic!("future format must not open"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(
        err.to_string().contains("unsupported snapshot version"),
        "error names the cause: {err}"
    );

    // Refusal means refusal: no truncation, no deletion, no fallback
    // side effects — every byte of the directory is as it was.
    let after: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    assert_eq!(before, after, "failed open must not mutate the directory");
    let _ = std::fs::remove_dir_all(&dir);
}
