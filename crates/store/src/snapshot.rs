//! Whole-database snapshots.
//!
//! Persistence format: a single `manifest.json` holding relation schemas,
//! heaps (tuples inline, including image payloads through serde) and index
//! declarations, plus the OID high-water mark. Indexes and heap OID maps
//! are rebuilt on load rather than persisted (see `index.rs`).
//!
//! The paper's `image` external representation stores payloads behind file
//! paths; this snapshot keeps payloads inline for atomicity. The
//! IDRISI-style file-per-raster layout lives in `gaea-baseline`, where its
//! weaknesses are the point.

use crate::db::{Database, Relation};
use crate::error::{StoreError, StoreResult};
use crate::version::VersionMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Serialized snapshot body.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    /// Format version for forward compatibility.
    version: u32,
    /// Next OID to allocate.
    next_oid: u64,
    /// All relations.
    relations: BTreeMap<String, Relation>,
    /// MVCC version counters (format v2; a v1 manifest loads with fresh
    /// counters — conservative, since nothing recorded against them yet).
    #[serde(default)]
    versions: VersionMap,
    /// WAL truncation watermark (format v4): sequence number of the last
    /// logged event this snapshot already contains. On recovery, replay
    /// skips log events at or below it — which makes a crash *during*
    /// log truncation harmless, since re-replaying the untruncated log
    /// is then a no-op. 0 for snapshots taken outside a WAL session
    /// (and for v1–v3 manifests).
    #[serde(default)]
    wal_seq: u64,
}

/// Current format: 4 (v3 + the WAL truncation watermark). v1–v3
/// manifests still load: missing counters start fresh, missing
/// stats/grids default empty and are recomputed by the post-load
/// rebuild, and a missing watermark is 0 (replay everything).
const SNAPSHOT_VERSION: u32 = 4;

/// Database state cloned out for a deferred snapshot write.
///
/// Background log compaction splits a snapshot in two: the committing
/// thread pays only this clone (heap payloads are `Arc`-shared, so the
/// deep cost is tuple vectors and index maps, not raster bytes), and a
/// worker thread pays the serialization and file I/O via
/// [`write_capture`] while commits keep appending to the log.
#[derive(Debug, Clone)]
pub struct Capture {
    manifest: Manifest,
}

/// Clone the database state a snapshot at `wal_seq` would persist.
/// Every relation is deep-copied rather than `Arc`-shared: a capture
/// outlives the next commits, and a shared live `Arc` would make each of
/// those writes copy the relation instead.
pub fn capture_with_wal_seq(db: &Database, wal_seq: u64) -> Capture {
    Capture {
        manifest: Manifest {
            version: SNAPSHOT_VERSION,
            next_oid: db.allocator_peek(),
            relations: db
                .relations()
                .iter()
                .map(|(name, rel)| (name.clone(), Relation::clone(rel)))
                .collect(),
            versions: db.versions().clone(),
            wal_seq,
        },
    }
}

/// Serialize a [`Capture`] to `dir/manifest.json` (creates `dir` if
/// needed). Callable from any thread.
pub fn write_capture(capture: &Capture, dir: &Path) -> StoreResult<()> {
    fs::create_dir_all(dir)?;
    let json =
        serde_json::to_string(&capture.manifest).map_err(|e| StoreError::Codec(e.to_string()))?;
    // Write-then-rename for atomicity against torn writes.
    let tmp = dir.join("manifest.json.tmp");
    let fin = dir.join("manifest.json");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, &fin)?;
    Ok(())
}

/// Write the database to `dir/manifest.json` (creates `dir` if needed).
pub fn save(db: &Database, dir: &Path) -> StoreResult<()> {
    write_capture(&capture_with_wal_seq(db, 0), dir)
}

/// Load a database from `dir/manifest.json`.
pub fn load(dir: &Path) -> StoreResult<Database> {
    Ok(load_with_wal_seq(dir)?.0)
}

/// Like [`load`], also returning the manifest's WAL truncation
/// watermark (0 for pre-v4 manifests).
pub fn load_with_wal_seq(dir: &Path) -> StoreResult<(Database, u64)> {
    let raw = fs::read_to_string(dir.join("manifest.json"))?;
    let manifest: Manifest =
        serde_json::from_str(&raw).map_err(|e| StoreError::Codec(e.to_string()))?;
    if manifest.version == 0 || manifest.version > SNAPSHOT_VERSION {
        return Err(StoreError::Codec(format!(
            "snapshot version {} unsupported (expected 1..={SNAPSHOT_VERSION})",
            manifest.version
        )));
    }
    Ok((
        Database::from_parts(manifest.relations, manifest.next_oid, manifest.versions),
        manifest.wal_seq,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::tuple::Tuple;
    use gaea_adt::{Image, PixType, TypeTag, Value};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gaea-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut db = Database::new();
        db.create_relation(
            "scenes",
            Schema::new(vec![
                Field::required("name", TypeTag::Text),
                Field::required("data", TypeTag::Image),
            ])
            .unwrap(),
        )
        .unwrap();
        db.relation_mut("scenes")
            .unwrap()
            .create_index("name")
            .unwrap();
        let img = Image::filled(4, 4, PixType::Int2, 123.0);
        let oid = db
            .insert(
                "scenes",
                Tuple::new(vec![Value::Text("tm_b3".into()), Value::image(img.clone())]),
            )
            .unwrap();
        let dir = tempdir("rt");
        save(&db, &dir).unwrap();
        let back = load(&dir).unwrap();
        // Tuple content survived, payload included.
        let t = back.get("scenes", oid).unwrap();
        assert_eq!(t.get(0), &Value::Text("tm_b3".into()));
        assert_eq!(t.get(1).as_image().unwrap().as_ref(), &img);
        // Index was rebuilt and answers lookups.
        let hits = back
            .relation("scenes")
            .unwrap()
            .index_lookup("name", &Value::Text("tm_b3".into()))
            .unwrap();
        assert_eq!(hits, vec![oid]);
        // OID allocation continues past the snapshot point.
        let next = back.allocate_oid();
        assert!(next > oid);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_counters_survive_save_load() {
        let mut db = Database::new();
        db.create_relation(
            "objects",
            Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
        )
        .unwrap();
        let a = db
            .insert("objects", Tuple::new(vec![Value::Int4(1)]))
            .unwrap();
        let b = db
            .insert("objects", Tuple::new(vec![Value::Int4(2)]))
            .unwrap();
        db.update("objects", a, Tuple::new(vec![Value::Int4(3)]))
            .unwrap();
        db.delete("objects", b).unwrap();
        let dir = tempdir("vers");
        save(&db, &dir).unwrap();
        let mut back = load(&dir).unwrap();
        // Exact counters survive — including the deleted object's.
        assert_eq!(back.object_version(a), db.object_version(a));
        assert_eq!(back.object_version(b), db.object_version(b));
        assert_eq!(
            back.relation_version("objects"),
            db.relation_version("objects")
        );
        assert_eq!(back.version_clock(), db.version_clock());
        // And the clock keeps moving forward after the reload.
        back.update("objects", a, Tuple::new(vec![Value::Int4(4)]))
            .unwrap();
        assert!(back.object_version(a) > db.object_version(a));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_manifest_loads_with_fresh_counters() {
        let dir = tempdir("v1");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            r#"{"version":1,"next_oid":1,"relations":{}}"#,
        )
        .unwrap();
        let db = load(&dir).unwrap();
        assert_eq!(db.version_clock(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_manifest_without_stats_or_grids_loads() {
        // A v2-era relation body has no "grids" or "stats" keys; both
        // must default empty and be recomputed by the post-load rebuild.
        let dir = tempdir("v2");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            concat!(
                r#"{"version":2,"next_oid":3,"relations":{"objects":{"#,
                r#""schema":{"fields":[{"name":"v","tag":"Int4","nullable":false}]},"#,
                r#""heap":{"slots":[[1,{"values":[{"Int4":7}]}],[2,{"values":[{"Int4":9}]}]],"free":[],"len":2},"#,
                r#""indexes":[{"column":0}]}}}"#,
            ),
        )
        .unwrap();
        let back = load(&dir).unwrap();
        let rel = back.relation("objects").unwrap();
        assert_eq!(rel.stats().rows, 2);
        assert_eq!(rel.stats().column(0).unwrap().distinct, 2);
        assert_eq!(
            rel.index_lookup("v", &Value::Int4(7)).unwrap(),
            vec![crate::oid::Oid(1)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_and_grids_survive_round_trip() {
        let mut db = Database::new();
        db.create_relation(
            "extents",
            Schema::new(vec![Field::required("ext", TypeTag::GeoBox)]).unwrap(),
        )
        .unwrap();
        let rel = db.relation_mut("extents").unwrap();
        rel.create_index("ext").unwrap();
        rel.create_grid("ext", 10.0).unwrap();
        let oid = db
            .insert(
                "extents",
                Tuple::new(vec![Value::GeoBox(gaea_adt::GeoBox::new(
                    0.0, 0.0, 5.0, 5.0,
                ))]),
            )
            .unwrap();
        let dir = tempdir("sg");
        save(&db, &dir).unwrap();
        let back = load(&dir).unwrap();
        let rel = back.relation("extents").unwrap();
        assert_eq!(rel.stats().rows, 1);
        // Grid declaration persisted and cells were rebuilt from the heap.
        let probe = rel.grid_for(0).unwrap();
        assert_eq!(probe.cell, 10.0);
        assert_eq!(
            probe.probe(&gaea_adt::GeoBox::new(1.0, 1.0, 2.0, 2.0)),
            vec![oid]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_fails() {
        let dir = tempdir("missing");
        assert!(matches!(load(&dir), Err(StoreError::Io(_))));
    }

    #[test]
    fn version_mismatch_detected() {
        let dir = tempdir("ver");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            r#"{"version":99,"next_oid":1,"relations":{}}"#,
        )
        .unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Codec(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
