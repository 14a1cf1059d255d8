//! Ablation A2 — the binding-search budget.
//!
//! When the planner decides a process must fire, the kernel still has to
//! *choose input objects* satisfying the template's guards (`common` on
//! extents). The kernel walks a bounded cartesian product of candidate
//! bindings, rejecting those the assertions refuse. This ablation varies
//! the bound (`Gaea::binding_budget`) on pools contaminated with
//! off-instant scenes: too small a budget fails good queries; the sweep
//! shows what headroom costs.

use gaea_adt::TypeTag;
use gaea_adt::{AbsTime, Image, PixType, Value};
use gaea_bench::{africa, bench_batched, jan86};
use gaea_core::kernel::{ClassSpec, Gaea, ProcessSpec};
use gaea_core::template::{Expr, Mapping, Template};
use gaea_core::{Query, QueryStrategy};

/// tm --P20--> landcover with `common(timestamp)` + `common(extent)`
/// guards, a 3-band SETOF argument, and trivially cheap image work (the
/// measured cost is binding search, not classification).
fn kernel() -> Gaea {
    let mut g = Gaea::in_memory().with_user("bench");
    g.define_class(ClassSpec::base("tm").attr("data", TypeTag::Image))
        .expect("class");
    g.define_class(
        ClassSpec::derived("landcover")
            .attr("data", TypeTag::Image)
            .attr("numclass", TypeTag::Int4),
    )
    .expect("class");
    let template = Template {
        assertions: vec![
            Expr::eq(
                Expr::Card(Box::new(Expr::Arg("bands".into()))),
                Expr::int(3),
            ),
            Expr::Common(Box::new(Expr::proj("bands", "timestamp"))),
            Expr::Common(Box::new(Expr::proj("bands", "spatialextent"))),
        ],
        mappings: vec![
            Mapping {
                attr: "data".into(),
                expr: Expr::apply("anyof", vec![Expr::Arg("bands".into())]),
            },
            Mapping {
                attr: "numclass".into(),
                expr: Expr::int(1),
            },
            Mapping {
                attr: "spatialextent".into(),
                expr: Expr::AnyOf(Box::new(Expr::proj("bands", "spatialextent"))),
            },
            Mapping {
                attr: "timestamp".into(),
                expr: Expr::AnyOf(Box::new(Expr::proj("bands", "timestamp"))),
            },
        ],
    };
    g.define_process(
        ProcessSpec::new("P20", "landcover")
            .setof_arg("bands", "tm", 3)
            .template(template),
    )
    .expect("process");
    g
}

/// Populate `n_noise` off-instant scenes plus one clean co-temporal
/// triple; the query pins the clean instant.
fn contaminate(g: &mut Gaea, n_noise: usize) {
    let t0 = jan86();
    for i in 0..n_noise {
        let t = AbsTime(t0.0 - 86_400 * (1 + i as i64));
        g.insert_object(
            "tm",
            vec![
                (
                    "data",
                    Value::image(Image::filled(4, 4, PixType::Float8, i as f64)),
                ),
                ("spatialextent", Value::GeoBox(africa())),
                ("timestamp", Value::AbsTime(t)),
            ],
        )
        .expect("insert");
    }
    for i in 0..3 {
        g.insert_object(
            "tm",
            vec![
                (
                    "data",
                    Value::image(Image::filled(4, 4, PixType::Float8, 100.0 + i as f64)),
                ),
                ("spatialextent", Value::GeoBox(africa())),
                ("timestamp", Value::AbsTime(t0)),
            ],
        )
        .expect("insert");
    }
}

fn main() {
    for noise in [0usize, 8, 32] {
        for budget in [2usize, 8, 32] {
            bench_batched(
                &format!("derive/noise{noise}_budget{budget}"),
                || {
                    let mut g = kernel();
                    contaminate(&mut g, noise);
                    g.binding_budget = budget;
                    g
                },
                |mut g| {
                    let q = Query::class("landcover")
                        .at(jan86())
                        .with_strategy(QueryStrategy::PreferDerivation);
                    g.query(&q).expect("co-temporal triple exists")
                },
            );
        }
    }
}
