//! Experiment F2 — Figure 2 layer operations.
//!
//! Measures the metadata operations the figure implies: expanding a
//! concept into member classes, walking the ISA DAG, and building the
//! derivation diagram from the catalog. Expected shape: all interactive
//! (µs), with net construction linear in catalog size.

use gaea_bench::{bench, figure2_kernel};
use gaea_core::derivation::DerivationNet;

fn main() {
    let g = figure2_kernel();
    let catalog = g.catalog();
    bench("concept_members/hot_trade_wind_desert", || {
        catalog
            .concept_member_classes("hot_trade_wind_desert")
            .expect("concept exists")
    });
    bench("isa_ancestors/hot_trade_wind_desert", || {
        catalog
            .concept_ancestors("hot_trade_wind_desert")
            .expect("ok")
    });
    let desert = catalog.concept_by_name("desert").expect("ok").id;
    bench("isa_children/desert", || catalog.concept_children(desert));
    bench("derivation_net_build/figure2", || {
        DerivationNet::build(catalog)
    });
    bench("process_lookup/P20", || {
        catalog
            .process_by_name("P20_unsupervised_classification")
            .expect("ok")
    });
}
