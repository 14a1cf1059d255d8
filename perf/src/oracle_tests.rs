//! The answer oracle against hand-built databases: every generated
//! statement, run on an embedded kernel, must get the answer its
//! `Expect` predicts.

use crate::db::{query, seed_scenes, seed_stations, Seeded};
use crate::gen::{Kind, Op, Scenes, Stations, Stmt, STATION_CLASS};
use crate::run::check;
use gaea_adt::Value;
use gaea_core::kernel::{Gaea, JobStatus};
use gaea_core::ObjectId;
use gaea_server::WireOutcome;
use gaea_store::Oid;
use std::time::Duration;

/// What the server does with each statement, minus the wire.
fn apply(g: &mut Gaea, seeded: &Seeded, stmt: &Stmt) {
    let update = |g: &mut Gaea, oid: u64, attr: &str, v: Value| {
        g.update_object(ObjectId(Oid(oid)), vec![(attr, v)])
            .unwrap()
    };
    match &stmt.op {
        Op::Retrieve(src) | Op::Async(src) => {
            let out = query(g, src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let job = out.pending.first().copied();
            let wire = WireOutcome::from_outcome(out, 0);
            check(stmt.expect.as_ref().unwrap(), &wire).unwrap_or_else(|e| panic!("{src}: {e}"));
            if let Op::Async(_) = stmt.op {
                let status = g.await_job(job.unwrap(), Duration::from_secs(10)).unwrap();
                assert!(matches!(status, JobStatus::Done(_)), "{status:?}");
            }
        }
        Op::Insert(attrs) => {
            let attrs = attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            g.insert_object(STATION_CLASS, attrs).unwrap();
        }
        Op::UpdateStation { index, reading } => update(
            g,
            seeded.station_oids[*index],
            "reading",
            Value::Float8(*reading),
        ),
        Op::UpdateBand { tile, image } => update(g, seeded.nir_oids[*tile], "data", image.clone()),
    }
}

#[test]
fn station_answers_match_a_hand_built_1k_database() {
    let st = Stations {
        n: 1000,
        sites: 50,
        cols: 50,
    };
    let mut g = Gaea::in_memory();
    let seeded = seed_stations(&mut g, &st).unwrap();
    // By hand: 1000 stations, 20 per site, station 123 is (23, 2) on the grid.
    assert_eq!(g.count_objects(STATION_CLASS).unwrap(), 1000);
    let one = query(&mut g, "RETRIEVE * FROM station WHERE v = 123").unwrap();
    assert_eq!(one.objects[0].attr("site"), Some(&Value::Int4(23)));
    assert_eq!(one.objects[0].attr("reading"), Some(&Value::Float8(123.25)));
    assert_eq!(st.rows_per_site(), 20);

    let reads = st.catalog_read(11, 400);
    for kind in [
        Kind::Point,
        Kind::Site,
        Kind::Range,
        Kind::Window,
        Kind::TopN,
    ] {
        assert!(reads.iter().any(|s| s.kind == kind), "{kind:?}");
    }
    for stmt in &reads {
        apply(&mut g, &seeded, stmt);
    }
    // Writes beside reads never move a read's answer.
    for stmt in &st.mixed_rw(12, 400) {
        apply(&mut g, &seeded, stmt);
    }
    // … and the oracle does notice a wrong answer.
    let wrong = query(&mut g, "RETRIEVE * FROM station WHERE v = 124").unwrap();
    let expect = reads
        .iter()
        .find(|s| s.kind == Kind::Site)
        .and_then(|s| s.expect.clone())
        .unwrap();
    assert!(check(&expect, &WireOutcome::from_outcome(wrong, 0)).is_err());
}

#[test]
fn derive_answers_match_the_state_the_stream_builds() {
    let (warm, n) = (20, 60);
    let sc = Scenes::for_stream(3, warm, n);
    let mut g = Gaea::in_memory();
    let seeded = seed_scenes(&mut g, &sc).unwrap();
    let stream = sc.derive_science(warm, n);
    for kind in [
        Kind::Reuse,
        Kind::Fired,
        Kind::Fetch,
        Kind::BandUpdate,
        Kind::Fresh,
        Kind::Async,
    ] {
        assert!(stream.iter().any(|s| s.kind == kind), "{kind:?}");
    }
    for stmt in &stream {
        apply(&mut g, &seeded, stmt);
    }
}
