//! Queries and the three-step retrieval mechanism (paper §2.1.5).
//!
//! "The execution of a database query which involves the retrieval of a
//! derived spatio-temporal concept is performed according to the following
//! sequence: 1. Direct data retrieval [...] 2. Data interpolation (temporal
//! or spatial) [...] 3. Data are computed, based on a derivation
//! relationship. Steps 2 and 3 are prioritized according to the user's
//! needs."

use crate::ids::JobId;
use crate::ids::{ObjectId, TaskId};
use crate::object::DataObject;
use gaea_adt::{AbsTime, GeoBox, TimeRange, Value};
use serde::{Deserialize, Serialize};

/// What the query targets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryTarget {
    /// One non-primitive class by name.
    Class(String),
    /// A concept by name — fans out over its member classes (§2.1.5 item 1:
    /// "queries on concepts [...] are handled through the high level
    /// semantics layer").
    Concept(String),
}

impl QueryTarget {
    /// The targeted class or concept name (trace labels, diagnostics).
    pub fn name(&self) -> &str {
        match self {
            QueryTarget::Class(n) | QueryTarget::Concept(n) => n,
        }
    }
}

/// Temporal selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeSel {
    /// Exact instant — interpolation may synthesize it (step 2).
    At(AbsTime),
    /// A window — satisfied by any stored timestamp inside it.
    In(TimeRange),
}

/// Comparison operator of a declarative attribute predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrCmp {
    /// `attr = value`
    Eq,
    /// `attr < value`
    Lt,
    /// `attr > value`
    Gt,
}

/// One attribute predicate of a `WHERE` clause (`numclass = 12`): the
/// step-1 retrieval filter beyond the spatio-temporal extents. Predicates
/// are conjunctive — every one must hold for an object to qualify.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrPred {
    /// Attribute name (extents included under their reserved names).
    pub attr: String,
    /// Comparison operator.
    pub cmp: AttrCmp,
    /// Constant the attribute is compared against.
    pub value: Value,
}

impl AttrPred {
    /// Build a predicate.
    pub fn new(attr: &str, cmp: AttrCmp, value: Value) -> AttrPred {
        AttrPred {
            attr: attr.into(),
            cmp,
            value,
        }
    }
}

/// A declared cost hint: how the bind stage orders candidate input
/// bindings for a step-3 derivation. The surface syntax is
/// `DERIVE COST <hint>` on a query (overriding) or `COST <hint>` on a
/// `DEFINE PROCESS` (the process's declared default); with neither, the
/// kernel falls back to its built-in heuristic (exact query-instant
/// matches first, then oldest timestamps, then object id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostHint {
    /// Prefer bindings over the earliest-timestamped objects — the
    /// heuristic's own tie-break order, made explicit and pinnable.
    Oldest,
    /// Prefer bindings over the latest-timestamped objects (most recent
    /// acquisitions are the cheapest to justify re-deriving from).
    Newest,
}

impl CostHint {
    /// Parse the surface keyword (`oldest` / `newest`).
    pub fn parse(s: &str) -> Option<CostHint> {
        match s {
            "oldest" => Some(CostHint::Oldest),
            "newest" => Some(CostHint::Newest),
            _ => None,
        }
    }

    /// The surface keyword this hint prints as.
    pub fn keyword(&self) -> &'static str {
        match self {
            CostHint::Oldest => "oldest",
            CostHint::Newest => "newest",
        }
    }
}

/// Result ordering (`ORDER BY attr [ASC|DESC]`): sort returned objects
/// by one attribute's value order before projection and `LIMIT`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderBy {
    /// Attribute to sort by (extents included under their reserved names).
    pub attr: String,
    /// Descending instead of the default ascending.
    pub desc: bool,
}

/// Step ordering (the paper's "prioritized according to the user's needs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueryStrategy {
    /// Retrieval only; fail rather than compute.
    RetrieveOnly,
    /// Retrieval → interpolation → derivation (the paper's default order).
    #[default]
    PreferInterpolation,
    /// Retrieval → derivation → interpolation.
    PreferDerivation,
}

/// A spatio-temporal query against a class or concept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Target class or concept.
    pub target: QueryTarget,
    /// Spatial window (objects must overlap it).
    pub spatial: Option<GeoBox>,
    /// Temporal selection.
    pub time: Option<TimeSel>,
    /// Step ordering.
    pub strategy: QueryStrategy,
    /// Conjunctive attribute predicates fed into the step-1 retrieval
    /// filter (and into the planner's goal marking, so stored objects that
    /// fail them cannot satisfy the goal).
    #[serde(default)]
    pub attr_preds: Vec<AttrPred>,
    /// Attribute names to keep on returned objects; empty keeps all
    /// (the `RETRIEVE *` projection).
    #[serde(default)]
    pub projection: Vec<String>,
    /// Pin step-3 derivation of the target class to this process
    /// (`DERIVE USING p`): other producers of the goal class are removed
    /// from the plannable net. Intermediate derivations stay open.
    #[serde(default)]
    pub using_process: Option<String>,
    /// Cost hint for the bind stage, overriding any hint declared on the
    /// fired process (`DERIVE COST <hint>`).
    #[serde(default)]
    pub cost: Option<CostHint>,
    /// Refuse stale step-1 answers (`FRESH`): stale hits are re-fired via
    /// the refresh machinery and the fresh outputs served in their place,
    /// instead of being served as history with a staleness flag.
    #[serde(default)]
    pub fresh: bool,
    /// Submit the step-3 derivation as a background job instead of
    /// firing it synchronously (`DERIVE ASYNC`). When retrieval finds no
    /// stored answer, the query returns [`QueryMethod::Submitted`] with
    /// the [`JobId`] in [`QueryOutcome::pending`] — the §5 contract for
    /// external processes that take minutes: the task record is written
    /// when the result arrives, and the session stays responsive
    /// meanwhile.
    #[serde(default)]
    pub async_submit: bool,
    /// Sort returned objects by an attribute (`ORDER BY attr [ASC|DESC]`),
    /// applied to step-1 answers before projection and `LIMIT`. Ties
    /// break by object id ascending, matching index iteration order.
    #[serde(default)]
    pub order_by: Option<OrderBy>,
    /// Keep at most this many objects (`LIMIT n`), applied after
    /// ordering. Index-ordered scans short-circuit once the limit is
    /// reached.
    #[serde(default)]
    pub limit: Option<u64>,
}

impl Query {
    /// Query a class by name, unconstrained.
    pub fn class(name: &str) -> Query {
        Query {
            target: QueryTarget::Class(name.into()),
            spatial: None,
            time: None,
            strategy: QueryStrategy::default(),
            attr_preds: vec![],
            projection: vec![],
            using_process: None,
            cost: None,
            fresh: false,
            async_submit: false,
            order_by: None,
            limit: None,
        }
    }

    /// Query a concept by name, unconstrained.
    pub fn concept(name: &str) -> Query {
        Query {
            target: QueryTarget::Concept(name.into()),
            ..Query::class(name)
        }
    }

    /// Constrain to a spatial window.
    pub fn over(mut self, bbox: GeoBox) -> Query {
        self.spatial = Some(bbox);
        self
    }

    /// Constrain to an instant.
    pub fn at(mut self, t: AbsTime) -> Query {
        self.time = Some(TimeSel::At(t));
        self
    }

    /// Constrain to a window.
    pub fn during(mut self, r: TimeRange) -> Query {
        self.time = Some(TimeSel::In(r));
        self
    }

    /// Choose the step ordering.
    pub fn with_strategy(mut self, s: QueryStrategy) -> Query {
        self.strategy = s;
        self
    }

    /// Add a conjunctive attribute predicate (`WHERE attr cmp value`).
    pub fn filter(mut self, attr: &str, cmp: AttrCmp, value: Value) -> Query {
        self.attr_preds.push(AttrPred::new(attr, cmp, value));
        self
    }

    /// Keep only the named attributes on returned objects.
    pub fn project(mut self, attrs: &[&str]) -> Query {
        self.projection = attrs.iter().map(|a| a.to_string()).collect();
        self
    }

    /// Pin step-3 derivation of the target class to one process.
    pub fn using(mut self, process: &str) -> Query {
        self.using_process = Some(process.into());
        self
    }

    /// Declare the bind-stage cost hint.
    pub fn with_cost(mut self, hint: CostHint) -> Query {
        self.cost = Some(hint);
        self
    }

    /// Refuse stale answers: re-fire stale step-1 hits instead of serving
    /// them as flagged history.
    pub fn fresh(mut self) -> Query {
        self.fresh = true;
        self
    }

    /// Submit the derivation as a background job (`DERIVE ASYNC`)
    /// instead of blocking on it; see [`Query::async_submit`].
    pub fn submit_async(mut self) -> Query {
        self.async_submit = true;
        self
    }

    /// Sort returned objects by an attribute (`ORDER BY`).
    pub fn order_by(mut self, attr: &str, desc: bool) -> Query {
        self.order_by = Some(OrderBy {
            attr: attr.into(),
            desc,
        });
        self
    }

    /// Keep at most `n` objects (`LIMIT n`).
    pub fn limit(mut self, n: u64) -> Query {
        self.limit = Some(n);
        self
    }
}

/// Which of the three steps ultimately answered the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryMethod {
    /// Step 1: the data were stored.
    Retrieved,
    /// Step 2: synthesized by interpolation.
    Interpolated,
    /// Step 3: computed through a derivation plan.
    Derived,
    /// Step 3, deferred: the derivation was submitted as a background
    /// job (`DERIVE ASYNC`) whose id is in [`QueryOutcome::pending`];
    /// nothing was computed yet. Await the job and re-issue the query to
    /// read the answer.
    Submitted,
}

/// The access path the optimizer chose for one class scan — the
/// EXPLAIN-visible half of the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessPath {
    /// Walk the whole heap, evaluating the compiled predicate per tuple.
    FullScan,
    /// Drive from an ordered-index point lookup on `attr`.
    IndexEq { attr: String },
    /// Drive from an ordered-index range scan on `attr` (Lt/Gt/BETWEEN).
    IndexRange { attr: String },
    /// Drive from a spatial-grid probe on `attr` (`WITHIN`).
    GridProbe { attr: String },
    /// Walk an index in key order for `ORDER BY`, short-circuiting at
    /// `LIMIT`.
    IndexOrdered { attr: String },
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPath::FullScan => write!(f, "full scan"),
            AccessPath::IndexEq { attr } => write!(f, "index eq({attr})"),
            AccessPath::IndexRange { attr } => write!(f, "index range({attr})"),
            AccessPath::GridProbe { attr } => write!(f, "grid probe({attr})"),
            AccessPath::IndexOrdered { attr } => write!(f, "index ordered({attr})"),
        }
    }
}

/// One class scan the optimizer planned while answering a query: the
/// chosen driving path and the cost estimate that won it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanPlan {
    /// The scanned class.
    pub class: String,
    /// Chosen driving access path (residual predicates always re-filter).
    pub path: AccessPath,
    /// Estimated rows the driving path yields (the cost used to pick it).
    pub estimated_rows: u64,
}

impl std::fmt::Display for ScanPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} via {} (~{} rows)",
            self.class, self.path, self.estimated_rows
        )
    }
}

/// Wall time of one pipeline stage inside a statement (EXPLAIN ANALYZE
/// row). Stage names are the span names the kernel opens: `plan`,
/// `retrieve`, `interpolate`, `derive`, `project` at the top level,
/// with nested spans (`bind`, `fire`, …) at `depth > 1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage (span) name.
    pub stage: String,
    /// Nesting depth: 1 = direct stage of the statement, deeper values
    /// are sub-stages of the stage preceding them.
    pub depth: u16,
    /// Wall time spent inside the stage, microseconds.
    pub wall_us: u64,
    /// Annotations attached while the stage ran (e.g. the chosen access
    /// path, wave widths).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub notes: Vec<(String, String)>,
}

/// Per-statement execution profile: the `EXPLAIN ANALYZE` surface.
///
/// Built from the statement's observability trace: `total_us` is the
/// end-to-end wall time and the depth-1 entries of `stages` are laps
/// over the statement body. Spans nest inside their parent without
/// overlapping, so the laps' sum never exceeds `total_us` and, the
/// laps being contiguous, tracks it closely.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryProfile {
    /// End-to-end statement wall time, microseconds.
    pub total_us: u64,
    /// Per-stage timings in completion order (see [`StageTiming`]).
    pub stages: Vec<StageTiming>,
}

impl QueryProfile {
    /// Flatten a finished observability trace into the wire-facing
    /// profile.
    pub fn from_trace(trace: &gaea_obs::Trace) -> QueryProfile {
        QueryProfile {
            total_us: trace.total_us,
            stages: trace
                .spans
                .iter()
                .map(|s| StageTiming {
                    stage: s.name.to_string(),
                    depth: s.depth,
                    wall_us: s.wall_us,
                    notes: s
                        .notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Sum of the top-level (depth-1) stage wall times — at most
    /// [`QueryProfile::total_us`].
    pub fn stage_sum_us(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.wall_us)
            .sum()
    }
}

/// Query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matching (possibly freshly created) objects.
    pub objects: Vec<DataObject>,
    /// The step that produced them.
    pub method: QueryMethod,
    /// Tasks recorded while answering (empty for plain retrieval, unless
    /// a `FRESH` query re-fired stale hits).
    pub tasks: Vec<TaskId>,
    /// The subset of `objects` that are *stale* derivations: their
    /// recorded inputs were mutated after derivation (MVCC fingerprint
    /// drift), so they describe history rather than the store's present
    /// state. They are served — the paper's step-1 contract — but flagged,
    /// so callers can decide to [`crate::kernel::Gaea::refresh_object`]
    /// them. Always empty for freshly computed answers.
    pub stale: Vec<ObjectId>,
    /// Background derivation jobs relevant to this answer: every
    /// in-flight job whose output class is among the query's targets —
    /// derivations another session already launched, visible here
    /// instead of being silently double-fired — and, for a
    /// [`QueryMethod::Submitted`] outcome, the job this query itself
    /// submitted. Poll or await them via `Gaea::job_status` /
    /// `Gaea::await_job`.
    pub pending: Vec<JobId>,
    /// The access paths the optimizer chose for the step-1 class scans
    /// (EXPLAIN output): one entry per scanned class extent. Empty when
    /// the answer never scanned a class (e.g. a submitted job).
    pub plans: Vec<ScanPlan>,
    /// Per-stage wall times of this statement (`EXPLAIN ANALYZE`
    /// output), filled by the kernel entry points. `None` only for
    /// outcomes assembled outside a traced statement.
    pub profile: Option<QueryProfile>,
}

/// Fold a finished statement trace into an outcome: feed the per-stage
/// latency histograms of the process-wide registry and attach the
/// wire-facing [`QueryProfile`]. Shared by the live-kernel and
/// pinned-snapshot query entry points.
pub(crate) fn apply_trace(outcome: &mut QueryOutcome, trace: &gaea_obs::Trace) {
    let m = gaea_obs::metrics();
    for s in &trace.spans {
        let h = match (s.name, s.depth) {
            ("plan", 1) => Some(&m.stage_plan_us),
            ("retrieve", 1) => Some(&m.stage_retrieve_us),
            ("interpolate", 1) => Some(&m.stage_interpolate_us),
            ("derive", 1) => Some(&m.stage_derive_us),
            ("project", 1) => Some(&m.stage_project_us),
            ("bind", _) => Some(&m.stage_bind_us),
            ("fire", d) if d > 1 => Some(&m.stage_fire_us),
            _ => None,
        };
        if let Some(h) = h {
            h.record(s.wall_us);
        }
    }
    outcome.profile = Some(QueryProfile::from_trace(trace));
}

impl QueryOutcome {
    /// Did the query return any stale derived object?
    pub fn any_stale(&self) -> bool {
        !self.stale.is_empty()
    }

    /// Is a specific returned object flagged stale?
    pub fn is_stale(&self, obj: ObjectId) -> bool {
        self.stale.contains(&obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let q = Query::class("landcover")
            .over(GeoBox::new(-20.0, -35.0, 55.0, 38.0))
            .at(AbsTime::from_ymd(1986, 1, 15).unwrap())
            .with_strategy(QueryStrategy::PreferDerivation);
        assert_eq!(q.target, QueryTarget::Class("landcover".into()));
        assert!(q.spatial.is_some());
        assert!(matches!(q.time, Some(TimeSel::At(_))));
        assert_eq!(q.strategy, QueryStrategy::PreferDerivation);
    }

    #[test]
    fn default_strategy_is_papers_order() {
        assert_eq!(
            Query::concept("ndvi").strategy,
            QueryStrategy::PreferInterpolation
        );
    }

    #[test]
    fn declarative_builders_compose() {
        let q = Query::class("landcover")
            .filter("numclass", AttrCmp::Eq, Value::Int4(12))
            .filter("area", AttrCmp::Gt, Value::Char16("a".into()))
            .project(&["data", "numclass"])
            .using("P20")
            .with_cost(CostHint::Newest)
            .fresh();
        assert_eq!(q.attr_preds.len(), 2);
        assert_eq!(q.attr_preds[0].attr, "numclass");
        assert_eq!(q.attr_preds[0].cmp, AttrCmp::Eq);
        assert_eq!(q.projection, vec!["data".to_string(), "numclass".into()]);
        assert_eq!(q.using_process.as_deref(), Some("P20"));
        assert_eq!(q.cost, Some(CostHint::Newest));
        assert!(q.fresh);
    }

    #[test]
    fn cost_hint_keywords_round_trip() {
        for h in [CostHint::Oldest, CostHint::Newest] {
            assert_eq!(CostHint::parse(h.keyword()), Some(h));
        }
        assert_eq!(CostHint::parse("cheapest"), None);
    }

    #[test]
    fn old_serialized_queries_still_load() {
        // Queries serialized before the declarative surface existed lack
        // the new fields; serde defaults must fill them in.
        let json = r#"{"target":{"Class":"ndvi"},"spatial":null,"time":null,
                       "strategy":"RetrieveOnly"}"#;
        let q: Query = serde_json::from_str(json).unwrap();
        assert!(q.attr_preds.is_empty() && q.projection.is_empty());
        assert!(q.using_process.is_none() && q.cost.is_none() && !q.fresh);
        assert!(!q.async_submit, "pre-async queries fire synchronously");
        assert!(q.order_by.is_none() && q.limit.is_none());
    }

    #[test]
    fn order_and_limit_builders_compose() {
        let q = Query::class("landcover")
            .order_by("numclass", true)
            .limit(5);
        assert_eq!(
            q.order_by,
            Some(OrderBy {
                attr: "numclass".into(),
                desc: true
            })
        );
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn plans_display_for_explain() {
        let plan = ScanPlan {
            class: "landcover".into(),
            path: AccessPath::IndexEq {
                attr: "numclass".into(),
            },
            estimated_rows: 3,
        };
        assert_eq!(
            plan.to_string(),
            "landcover via index eq(numclass) (~3 rows)"
        );
        assert_eq!(AccessPath::FullScan.to_string(), "full scan");
    }

    #[test]
    fn async_builder_composes() {
        let q = Query::class("remote_out").submit_async();
        assert!(q.async_submit);
        assert!(!Query::class("remote_out").async_submit);
    }
}
