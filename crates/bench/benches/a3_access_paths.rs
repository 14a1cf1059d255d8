//! Ablation A3 — store access paths: predicate scan vs ordered index.
//!
//! The paper leans on Postgres for "standard database management
//! features" (§4.1 criticizes file-based GIS for lacking them). The
//! substitute store provides both full-relation predicate scans and
//! ordered secondary indexes; this ablation shows the crossover that
//! justifies maintaining indexes on catalog-queried columns.

use gaea_adt::{TypeTag, Value};
use gaea_bench::bench;
use gaea_store::{Database, Field, Predicate, Schema, Tuple};

fn filled_db(n: i32) -> Database {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Field::required("seq", TypeTag::Int4),
        Field::required("name", TypeTag::Text),
    ])
    .expect("schema");
    db.create_relation("objects", schema).expect("relation");
    for i in 0..n {
        db.insert(
            "objects",
            Tuple::new(vec![Value::Int4(i), Value::Text(format!("obj{i}"))]),
        )
        .expect("insert");
    }
    db.relation_mut("objects")
        .expect("relation")
        .create_index("seq")
        .expect("index");
    db
}

fn main() {
    for n in [100i32, 1_000, 10_000] {
        let db = filled_db(n);
        let rel = db.relation("objects").expect("relation");
        let key = n / 2;
        // Point lookup: scan vs index.
        bench(&format!("scan_eq/{n}"), || {
            let pred = Predicate::Eq("seq".into(), Value::Int4(key));
            db.scan("objects", &pred).expect("scan")
        });
        bench(&format!("index_eq/{n}"), || {
            rel.index_lookup("seq", &Value::Int4(key)).expect("lookup")
        });
        // 1% range: scan with And-predicate vs index range.
        let lo = key;
        let hi = key + n / 100;
        bench(&format!("scan_range/{n}"), || {
            let pred = Predicate::Gt("seq".into(), Value::Int4(lo - 1))
                .and(Predicate::Lt("seq".into(), Value::Int4(hi)));
            db.scan("objects", &pred).expect("scan")
        });
        bench(&format!("index_range/{n}"), || {
            rel.index_range("seq", Some(&Value::Int4(lo)), Some(&Value::Int4(hi - 1)))
                .expect("range")
        });
    }
}
