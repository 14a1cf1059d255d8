//! Property-based tests on the storage substrate: CRUD model checking,
//! transaction rollback exactness, index/scan agreement, the grid and
//! ordered index against plain reference models, and incremental pins
//! against from-scratch pins.

use gaea::adt::{GeoBox, TypeTag, Value};
use gaea::store::grid::OVERSIZE_CELLS;
use gaea::store::index::OrderedIndex;
use gaea::store::{Database, Field, GridIndex, Oid, PinnedStore, Predicate, Schema, Tuple};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Insert(i32),
    Delete(usize),
    Update(usize, i32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i32>().prop_map(Op::Insert),
        (0usize..32).prop_map(Op::Delete),
        ((0usize..32), any::<i32>()).prop_map(|(i, v)| Op::Update(i, v)),
    ]
}

fn db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "objects",
        Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
    )
    .unwrap();
    db
}

fn tuple(v: i32) -> Tuple {
    Tuple::new(vec![Value::Int4(v)])
}

/// A relation of GeoBox extents with a uniform spatial grid attached.
fn geo_db(cell: f64) -> Database {
    let mut db = Database::new();
    db.create_relation(
        "extents",
        Schema::new(vec![Field::required("ext", TypeTag::GeoBox)]).unwrap(),
    )
    .unwrap();
    db.relation_mut("extents")
        .unwrap()
        .create_grid("ext", cell)
        .unwrap();
    db
}

fn boxed(x: f64, y: f64, w: f64, h: f64) -> Tuple {
    Tuple::new(vec![Value::GeoBox(GeoBox::new(x, y, x + w, y + h))])
}

#[derive(Debug, Clone)]
enum GeoOp {
    Insert(f64, f64, f64, f64),
    Delete(usize),
    Update(usize, f64, f64, f64, f64),
}

fn geo_op_strategy() -> impl Strategy<Value = GeoOp> {
    let coords = (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.0f64..60.0,
        0.0f64..60.0,
    );
    prop_oneof![
        coords
            .clone()
            .prop_map(|(x, y, w, h)| GeoOp::Insert(x, y, w, h)),
        (0usize..32).prop_map(GeoOp::Delete),
        ((0usize..32), coords).prop_map(|(i, (x, y, w, h))| GeoOp::Update(i, x, y, w, h)),
    ]
}

/// Reference model of a grid's raw candidates: an extent registered in
/// at most [`OVERSIZE_CELLS`] cells is a candidate for every window
/// whose cell span shares a cell with it; a larger one for every
/// window. Returns the sorted, deduplicated candidates and the
/// per-cell registration count `probe_estimate` reports.
fn model_candidates(cell: f64, live: &BTreeMap<Oid, GeoBox>, window: &GeoBox) -> (Vec<Oid>, usize) {
    let span = |b: &GeoBox| {
        let c = |v: f64| (v / cell).floor() as i64;
        ((c(b.xmin), c(b.ymin)), (c(b.xmax), c(b.ymax)))
    };
    let ((wx0, wy0), (wx1, wy1)) = span(window);
    let (mut oids, mut registrations) = (Vec::new(), 0);
    for (&oid, b) in live {
        let ((x0, y0), (x1, y1)) = span(b);
        let area = (x1 - x0 + 1) as u128 * (y1 - y0 + 1) as u128;
        let shared = (x1.min(wx1) - x0.max(wx0) + 1).max(0) as usize
            * (y1.min(wy1) - y0.max(wy0) + 1).max(0) as usize;
        if area > OVERSIZE_CELLS as u128 {
            oids.push(oid);
            registrations += 1;
        } else if shared > 0 {
            oids.push(oid);
            registrations += shared;
        }
    }
    (oids, registrations)
}

#[derive(Debug, Clone)]
enum KeyOp {
    Insert(i32),
    Delete(usize),
    Update(usize, i32),
    /// Remove an OID the key does not hold: must change nothing.
    RemoveAbsent(i32),
}

/// Few distinct keys, so keys are shared and unshared again.
fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
    prop_oneof![
        (0i32..6).prop_map(KeyOp::Insert),
        (0i32..6).prop_map(KeyOp::RemoveAbsent),
        (0usize..32).prop_map(KeyOp::Delete),
        ((0usize..32), 0i32..6).prop_map(|(i, k)| KeyOp::Update(i, k)),
    ]
}

/// Remove `oid` from a key of the index model, dropping emptied keys.
fn model_remove(model: &mut BTreeMap<Value, Vec<Oid>>, key: &Value, oid: Oid) {
    let oids = model.get_mut(key).unwrap();
    oids.retain(|o| *o != oid);
    if oids.is_empty() {
        model.remove(key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store agrees with a BTreeMap model under arbitrary CRUD
    /// interleavings.
    #[test]
    fn crud_model_check(ops in prop::collection::vec(op_strategy(), 0..64)) {
        let mut db = db();
        let mut model: BTreeMap<Oid, i32> = BTreeMap::new();
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let oid = db.insert("objects", tuple(v)).unwrap();
                    model.insert(oid, v);
                    live.push(oid);
                }
                Op::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    let stored = db.delete("objects", oid);
                    if model.remove(&oid).is_some() {
                        prop_assert!(stored.is_ok());
                        live.retain(|o| *o != oid);
                    } else {
                        prop_assert!(stored.is_err());
                    }
                }
                Op::Update(i, v) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    if model.contains_key(&oid) {
                        db.update("objects", oid, tuple(v)).unwrap();
                        model.insert(oid, v);
                    }
                }
            }
        }
        // Full agreement.
        let rel = db.relation("objects").unwrap();
        prop_assert_eq!(rel.len(), model.len());
        for (oid, v) in &model {
            prop_assert_eq!(rel.get(*oid).unwrap().get(0), &Value::Int4(*v));
        }
    }

    /// A rolled-back transaction leaves the store exactly as it found it,
    /// whatever the interleaving.
    #[test]
    fn rollback_restores_exact_state(
        committed in prop::collection::vec(any::<i32>(), 1..16),
        txn_ops in prop::collection::vec(op_strategy(), 0..32),
    ) {
        let mut db = db();
        let mut live = Vec::new();
        for v in &committed {
            live.push(db.insert("objects", tuple(*v)).unwrap());
        }
        let before: Vec<(Oid, Tuple)> = db.scan("objects", &Predicate::True).unwrap();
        {
            let mut txn = db.begin();
            for op in txn_ops {
                match op {
                    Op::Insert(v) => { let _ = txn.insert("objects", tuple(v)); }
                    Op::Delete(i) => {
                        if !live.is_empty() {
                            let _ = txn.delete("objects", live[i % live.len()]);
                        }
                    }
                    Op::Update(i, v) => {
                        if !live.is_empty() {
                            let _ = txn.update("objects", live[i % live.len()], tuple(v));
                        }
                    }
                }
            }
            txn.rollback();
        }
        let after: Vec<(Oid, Tuple)> = db.scan("objects", &Predicate::True).unwrap();
        prop_assert_eq!(before, after);
    }

    /// Index lookups agree with predicate scans for every stored key.
    #[test]
    fn index_agrees_with_scan(values in prop::collection::vec(-50i32..50, 1..64)) {
        let mut db = db();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        for v in &values {
            db.insert("objects", tuple(*v)).unwrap();
        }
        for key in -50i32..50 {
            let via_index = {
                let mut oids = db
                    .relation("objects")
                    .unwrap()
                    .index_lookup("v", &Value::Int4(key))
                    .unwrap();
                oids.sort();
                oids
            };
            let via_scan = {
                let mut oids: Vec<Oid> = db
                    .scan("objects", &Predicate::Eq("v".into(), Value::Int4(key)))
                    .unwrap()
                    .into_iter()
                    .map(|(oid, _)| oid)
                    .collect();
                oids.sort();
                oids
            };
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// Index-backed access agrees with the heap scan after an arbitrary
    /// mutation sequence: equality lookups, ordered range walks and the
    /// maintained statistics all reflect exactly the live rows.
    #[test]
    fn index_scan_equals_heap_scan_under_mutation(
        ops in prop::collection::vec(op_strategy(), 0..64),
        probe in -60i32..60,
    ) {
        let mut db = db();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => live.push(db.insert("objects", tuple(v % 50)).unwrap()),
                Op::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("objects", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                Op::Update(i, v) => {
                    if live.is_empty() { continue; }
                    db.update("objects", live[i % live.len()], tuple(v % 50)).unwrap();
                }
            }
        }
        let rel = db.relation("objects").unwrap();
        // Equality: index lookup ≡ heap scan, for hit and miss keys alike.
        let mut via_index = rel.index_lookup("v", &Value::Int4(probe)).unwrap();
        via_index.sort();
        let mut via_scan = rel
            .scan_oids(&Predicate::Eq("v".into(), Value::Int4(probe)))
            .unwrap();
        via_scan.sort();
        prop_assert_eq!(via_index, via_scan);
        // Range: an inclusive index range ≡ the heap rows it brackets.
        let pos = rel.schema().position("v").unwrap();
        let idx = rel.index_for(pos).unwrap();
        let (lo, hi) = (Value::Int4(probe - 10), Value::Int4(probe + 10));
        let mut ranged = idx.range(Some(&lo), Some(&hi));
        ranged.sort();
        let mut manual: Vec<Oid> = rel
            .iter()
            .filter(|(_, t)| {
                let v = t.get(pos);
                *v >= lo && *v <= hi
            })
            .map(|(oid, _)| oid)
            .collect();
        manual.sort();
        prop_assert_eq!(ranged, manual);
        // Statistics track the mutations exactly.
        prop_assert_eq!(rel.stats().rows, live.len() as u64);
        let distinct: std::collections::BTreeSet<&Value> =
            rel.iter().map(|(_, t)| t.get(pos)).collect();
        prop_assert_eq!(
            rel.stats().column(pos).unwrap().distinct,
            distinct.len() as u64
        );
    }

    /// The spatial grid is exact: probing a window and re-filtering by
    /// true intersection returns precisely the heap rows whose boxes
    /// overlap it, under arbitrary insert/delete/update interleavings.
    #[test]
    fn grid_probe_agrees_with_heap_scan(
        cell in 1.0f64..30.0,
        ops in prop::collection::vec(geo_op_strategy(), 0..48),
        wx in -120.0f64..120.0,
        wy in -120.0f64..120.0,
        ww in 0.0f64..80.0,
        wh in 0.0f64..80.0,
    ) {
        let mut db = geo_db(cell);
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                GeoOp::Insert(x, y, w, h) => {
                    live.push(db.insert("extents", boxed(x, y, w, h)).unwrap());
                }
                GeoOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("extents", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                GeoOp::Update(i, x, y, w, h) => {
                    if live.is_empty() { continue; }
                    db.update("extents", live[i % live.len()], boxed(x, y, w, h)).unwrap();
                }
            }
        }
        let window = GeoBox::new(wx, wy, wx + ww, wy + wh);
        let rel = db.relation("extents").unwrap();
        let pos = rel.schema().position("ext").unwrap();
        // Candidates, then the exact residual filter the kernel applies.
        let mut via_grid: Vec<Oid> = rel
            .grid_probe("ext", &window)
            .unwrap()
            .into_iter()
            .filter(|oid| {
                rel.get(*oid)
                    .unwrap()
                    .get(pos)
                    .as_geobox()
                    .is_some_and(|b| b.intersects(&window))
            })
            .collect();
        via_grid.sort();
        let mut via_scan = rel
            .scan_oids(&Predicate::BoxOverlaps("ext".into(), window))
            .unwrap();
        via_scan.sort();
        prop_assert_eq!(via_grid, via_scan);
    }

    /// The grid's raw candidate set equals the reference model's under
    /// insert/update/delete streams of multi-cell and oversize boxes,
    /// for ordinary, huge and inverted (x or y) windows, and
    /// `probe_estimate ≥ probe().len()` holds after every step. With
    /// `drain`, every extent is removed again and the grid ends empty.
    #[test]
    fn grid_candidates_match_reference_model(
        cell in 1.0f64..30.0,
        ops in prop::collection::vec(geo_op_strategy(), 0..48),
        wx in -120.0f64..120.0,
        wy in -120.0f64..120.0,
        ww in 0.0f64..80.0,
        wh in 0.0f64..80.0,
        drain in any::<bool>(),
    ) {
        let mut grid = GridIndex::new(0, cell);
        let mut live: BTreeMap<Oid, GeoBox> = BTreeMap::new();
        let windows = [
            GeoBox::new(wx, wy, wx + ww, wy + wh),
            GeoBox::new(-1.0e9, -1.0e9, 1.0e9, 1.0e9),
            GeoBox { xmin: wx + ww, ymin: wy, xmax: wx, ymax: wy + wh },
            GeoBox { xmin: wx, ymin: wy + wh, xmax: wx + ww, ymax: wy },
        ];
        let mut next = 1;
        let mut steps: Vec<GeoOp> = ops;
        if drain {
            steps.extend((0..48).map(|_| GeoOp::Delete(0)));
        }
        for op in steps {
            let nth = |i: usize| live.keys().nth(i % live.len()).copied();
            match op {
                GeoOp::Insert(x, y, w, h) => {
                    let b = GeoBox::new(x, y, x + w, y + h);
                    grid.insert(&b, Oid(next));
                    live.insert(Oid(next), b);
                    next += 1;
                }
                GeoOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = nth(i).unwrap();
                    grid.remove(&live.remove(&oid).unwrap(), oid);
                }
                GeoOp::Update(i, x, y, w, h) => {
                    if live.is_empty() { continue; }
                    let oid = nth(i).unwrap();
                    let b = GeoBox::new(x, y, x + w, y + h);
                    grid.remove(&live.insert(oid, b).unwrap(), oid);
                    grid.insert(&b, oid);
                }
            }
            for window in &windows {
                let probe = grid.probe(window);
                let (oids, registrations) = model_candidates(cell, &live, window);
                prop_assert_eq!(&probe, &oids);
                prop_assert_eq!(grid.probe_estimate(window), registrations);
                prop_assert!(grid.probe_estimate(window) >= probe.len());
            }
        }
        prop_assert_eq!(grid.is_empty(), live.is_empty());
    }

    /// Every read of the ordered index equals a `BTreeMap<Value,
    /// Vec<Oid>>` model after each step of an insert/update/delete
    /// stream over a handful of keys, so keys go from one OID to many
    /// and back, and updated OIDs re-enter at the end of their new key.
    #[test]
    fn ordered_index_matches_reference_model(
        ops in prop::collection::vec(key_op_strategy(), 0..64),
    ) {
        let mut idx = OrderedIndex::new(0);
        let mut model: BTreeMap<Value, Vec<Oid>> = BTreeMap::new();
        let mut live: Vec<(Oid, Value)> = Vec::new();
        for (n, op) in ops.into_iter().enumerate() {
            match op {
                KeyOp::Insert(k) => {
                    let oid = Oid(n as u64 + 1);
                    idx.insert(Value::Int4(k), oid);
                    model.entry(Value::Int4(k)).or_default().push(oid);
                    live.push((oid, Value::Int4(k)));
                }
                KeyOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let (oid, key) = live.remove(i % live.len());
                    idx.remove(&key, oid);
                    model_remove(&mut model, &key, oid);
                }
                KeyOp::Update(i, k) => {
                    if live.is_empty() { continue; }
                    let i = i % live.len();
                    let (oid, old) = live[i].clone();
                    idx.remove(&old, oid);
                    model_remove(&mut model, &old, oid);
                    idx.insert(Value::Int4(k), oid);
                    model.entry(Value::Int4(k)).or_default().push(oid);
                    live[i].1 = Value::Int4(k);
                }
                KeyOp::RemoveAbsent(k) => idx.remove(&Value::Int4(k), Oid(u64::MAX)),
            }
            for k in -1i32..7 {
                let key = Value::Int4(k);
                prop_assert_eq!(idx.lookup(&key), model.get(&key).map_or(&[][..], Vec::as_slice));
                let (lo, hi) = (Value::Int4(k), Value::Int4(k + 2));
                let ranged: Vec<Oid> = model.range(lo.clone()..=hi.clone()).flat_map(|(_, o)| o.clone()).collect();
                prop_assert_eq!(idx.range(Some(&lo), Some(&hi)), ranged);
            }
            prop_assert_eq!(idx.range(None, None), model.values().flatten().copied().collect::<Vec<_>>());
            let asc: Vec<Oid> = model.values().flatten().copied().collect();
            let desc: Vec<Oid> = model.values().rev().flatten().copied().collect();
            prop_assert_eq!(idx.sorted_oids(false).collect::<Vec<_>>(), asc);
            prop_assert_eq!(idx.sorted_oids(true).collect::<Vec<_>>(), desc);
            prop_assert_eq!(idx.distinct_keys(), model.len());
            prop_assert_eq!(idx.len(), live.len());
            prop_assert_eq!(idx.is_empty(), live.is_empty());
            prop_assert_eq!(idx.min_key(), model.keys().next());
            prop_assert_eq!(idx.max_key(), model.keys().next_back());
        }
    }

    /// The serde-skipped index maps, grid cells and statistics all
    /// rebuild on snapshot load: every access path answers identically
    /// before and after a save/load round trip.
    #[test]
    fn access_paths_rebuild_after_snapshot(
        values in prop::collection::vec(-30i32..30, 1..32),
        geo_ops in prop::collection::vec(geo_op_strategy(), 1..24),
    ) {
        let mut db = geo_db(8.0);
        db.create_relation(
            "objects",
            Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
        )
        .unwrap();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        for v in &values {
            db.insert("objects", tuple(*v)).unwrap();
        }
        let mut live: Vec<Oid> = Vec::new();
        for op in &geo_ops {
            match op {
                GeoOp::Insert(x, y, w, h) => {
                    live.push(db.insert("extents", boxed(*x, *y, *w, *h)).unwrap());
                }
                GeoOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("extents", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                GeoOp::Update(i, x, y, w, h) => {
                    if live.is_empty() { continue; }
                    db.update("extents", live[i % live.len()], boxed(*x, *y, *w, *h)).unwrap();
                }
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "gaea-prop-paths-{}-{}-{}",
            std::process::id(),
            values.len(),
            geo_ops.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        gaea::store::snapshot::save(&db, &dir).unwrap();
        let back = gaea::store::snapshot::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Ordered index: identical lookups for every probed key.
        for key in -30i32..30 {
            let mut before = db
                .relation("objects").unwrap()
                .index_lookup("v", &Value::Int4(key)).unwrap();
            before.sort();
            let mut after = back
                .relation("objects").unwrap()
                .index_lookup("v", &Value::Int4(key)).unwrap();
            after.sort();
            prop_assert_eq!(before, after);
        }
        // Grid: identical probes over a window sweep.
        for step in 0..4 {
            let o = -100.0 + step as f64 * 50.0;
            let window = GeoBox::new(o, o, o + 70.0, o + 70.0);
            let mut before = db.relation("extents").unwrap().grid_probe("ext", &window).unwrap();
            before.sort();
            let mut after = back.relation("extents").unwrap().grid_probe("ext", &window).unwrap();
            after.sort();
            prop_assert_eq!(before, after);
        }
        // Statistics recompute to the same summary.
        for name in ["objects", "extents"] {
            prop_assert_eq!(
                db.relation(name).unwrap().stats(),
                back.relation(name).unwrap().stats()
            );
        }
    }

    /// Snapshot save/load preserves scans and continues OID allocation
    /// without collisions.
    #[test]
    fn snapshot_round_trip(values in prop::collection::vec(any::<i32>(), 0..32)) {
        let mut db = db();
        let mut oids = Vec::new();
        for v in &values {
            oids.push(db.insert("objects", tuple(*v)).unwrap());
        }
        let dir = std::env::temp_dir().join(format!(
            "gaea-prop-snap-{}-{}",
            std::process::id(),
            values.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        gaea::store::snapshot::save(&db, &dir).unwrap();
        let mut back = gaea::store::snapshot::load(&dir).unwrap();
        for (oid, v) in oids.iter().zip(&values) {
            prop_assert_eq!(back.get("objects", *oid).unwrap().get(0), &Value::Int4(*v));
        }
        let fresh = back.insert("objects", tuple(0)).unwrap();
        prop_assert!(!oids.contains(&fresh), "OID reuse after snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The relations of the incremental-pin property.
const PIN_RELS: [&str; 3] = ["r0", "r1", "r2"];

fn pin_schema() -> Schema {
    Schema::new(vec![
        Field::required("v", TypeTag::Int4),
        Field::required("ext", TypeTag::GeoBox),
    ])
    .unwrap()
}

fn pin_tuple(v: i32, x: f64) -> Tuple {
    Tuple::new(vec![
        Value::Int4(v),
        Value::GeoBox(GeoBox::new(x, x, x + 5.0, x + 5.0)),
    ])
}

/// One step of the incremental-pin property: a write to relation
/// `PIN_RELS[rel % 3]`, or a pin from the previous view.
#[derive(Debug, Clone)]
enum PinOp {
    Insert(usize, i32, f64),
    Update(usize, usize, i32, f64),
    Delete(usize, usize),
    CreateIndex(usize),
    CreateGrid(usize, f64),
    RetuneGrid(usize, f64),
    DropRecreate(usize),
    Pin,
}

fn pin_op_strategy() -> impl Strategy<Value = PinOp> {
    let v = 0i32..6;
    let x = -40.0f64..40.0;
    let cell = 2.0f64..20.0;
    prop_oneof![
        4 => (0usize..3, v.clone(), x.clone()).prop_map(|(r, v, x)| PinOp::Insert(r, v, x)),
        2 => (0usize..3, 0usize..32, v, x).prop_map(|(r, i, v, x)| PinOp::Update(r, i, v, x)),
        2 => (0usize..3, 0usize..32).prop_map(|(r, i)| PinOp::Delete(r, i)),
        1 => (0usize..3).prop_map(PinOp::CreateIndex),
        1 => (0usize..3, cell.clone()).prop_map(|(r, c)| PinOp::CreateGrid(r, c)),
        1 => (0usize..3, cell).prop_map(|(r, c)| PinOp::RetuneGrid(r, c)),
        1 => (0usize..3).prop_map(PinOp::DropRecreate),
        3 => Just(PinOp::Pin),
    ]
}

/// Everything a reader can ask a pinned store, rendered comparable:
/// per relation its scan, point gets, index lookups and grid probes
/// (errors included — a view without the index must say so), plus every
/// object version, relation version and the clock.
fn pin_answers(view: &PinnedStore, oids: &[Oid]) -> Vec<String> {
    let mut out = vec![format!("clock {}", view.clock())];
    let windows = [
        GeoBox::new(-50.0, -50.0, 50.0, 50.0),
        GeoBox::new(-10.0, -10.0, 3.0, 3.0),
        GeoBox::new(20.0, 20.0, 21.0, 21.0),
    ];
    for name in PIN_RELS {
        out.push(format!("{name} version {}", view.relation_version(name)));
        let Ok(rel) = view.relation(name) else {
            out.push(format!("{name} absent"));
            continue;
        };
        out.push(format!("{name} scan {:?}", rel.scan(&Predicate::True)));
        for &oid in oids {
            out.push(format!("{name} get {oid:?} {:?}", view.get(name, oid)));
        }
        for k in 0..6 {
            let mut hits = rel.index_lookup("v", &Value::Int4(k));
            if let Ok(h) = &mut hits {
                h.sort();
            }
            out.push(format!("{name} lookup {k} {hits:?}"));
        }
        for w in &windows {
            out.push(format!("{name} probe {w:?} {:?}", rel.grid_probe("ext", w)));
        }
    }
    for &oid in oids {
        out.push(format!("object {oid:?} {}", view.object_version(oid)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A pin taken from the previous view answers exactly what a pin
    /// from scratch answers, over writes, structural changes (indexes,
    /// grids, retunes) and drop + re-create of the same name; it copies
    /// exactly the relations written since the previous pin; and every
    /// earlier view stays frozen at its own instant.
    #[test]
    fn incremental_pins_equal_fresh_pins_and_stay_frozen(
        ops in prop::collection::vec(pin_op_strategy(), 1..64)
    ) {
        let mut db = Database::new();
        let mut live: Vec<Vec<Oid>> = vec![Vec::new(); PIN_RELS.len()];
        for name in PIN_RELS {
            db.create_relation(name, pin_schema()).unwrap();
        }
        let mut oids: Vec<Oid> = Vec::new();
        let mut written: BTreeSet<usize> = (0..PIN_RELS.len()).collect();
        let mut views: Vec<(PinnedStore, Vec<Oid>, Vec<String>)> = Vec::new();
        for op in &ops {
            match *op {
                PinOp::Insert(r, v, x) => {
                    let oid = db.insert(PIN_RELS[r], pin_tuple(v, x)).unwrap();
                    live[r].push(oid);
                    oids.push(oid);
                    written.insert(r);
                }
                PinOp::Update(r, i, v, x) => {
                    if live[r].is_empty() { continue; }
                    let oid = live[r][i % live[r].len()];
                    db.update(PIN_RELS[r], oid, pin_tuple(v, x)).unwrap();
                    written.insert(r);
                }
                PinOp::Delete(r, i) => {
                    if live[r].is_empty() { continue; }
                    let at = i % live[r].len();
                    let oid = live[r].remove(at);
                    db.delete(PIN_RELS[r], oid).unwrap();
                    written.insert(r);
                }
                PinOp::CreateIndex(r) => {
                    // A duplicate index is refused, but the borrow was
                    // still taken: the relation counts as written.
                    let _ = db.relation_mut(PIN_RELS[r]).unwrap().create_index("v");
                    written.insert(r);
                }
                PinOp::CreateGrid(r, cell) => {
                    let _ = db.relation_mut(PIN_RELS[r]).unwrap().create_grid("ext", cell);
                    written.insert(r);
                }
                PinOp::RetuneGrid(r, cell) => {
                    let _ = db.relation_mut(PIN_RELS[r]).unwrap().retune_grid(1, cell);
                    written.insert(r);
                }
                PinOp::DropRecreate(r) => {
                    db.drop_relation(PIN_RELS[r]).unwrap();
                    db.create_relation(PIN_RELS[r], pin_schema()).unwrap();
                    live[r].clear();
                    written.insert(r);
                }
                PinOp::Pin => {
                    let view = db.pin_since(views.last().map(|(v, _, _)| v));
                    let answers = pin_answers(&view, &oids);
                    prop_assert_eq!(&answers, &pin_answers(&db.pin(), &oids));
                    prop_assert_eq!(view.relations_copied(), written.len());
                    written.clear();
                    views.push((view, oids.clone(), answers));
                }
            }
            for (view, at_pin, answers) in &views {
                prop_assert_eq!(&pin_answers(view, at_pin), answers, "a view moved");
            }
        }
    }
}
