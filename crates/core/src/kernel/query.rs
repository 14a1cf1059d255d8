//! The three-step query mechanism (§2.1.5): one pipeline, two drivers.
//!
//! "Queries are executed through retrieval of existing data, retrieval
//! plus interpolation, or retrieval plus derivation." Every statement
//! runs the same read stages, free functions over a `(&Database,
//! &Catalog)` pair so they answer identically against the live store and
//! against a pinned snapshot:
//!
//! * **resolve** (`resolve`, the `plan` span) — target classes, then
//!   validation of the declarative parts against the catalog;
//! * **retrieve** (`retrieve_stage`, the `retrieve` span) — step 1: the
//!   access-path scan of every target extent, each hit flagged stale
//!   against the store's version counters;
//! * **serve** (`serve`, the `project` span) — ORDER BY / LIMIT /
//!   projection, then the `pending` job listing.
//!
//! Two thin drivers run them, each under one statement trace (`traced`).
//! [`Gaea::query`] is the live driver: it adds only the stages that
//! commit — access-path creation and the job pump inside `plan`, `ASYNC`
//! submission, interpolation and derivation when step 1 comes back
//! empty, `FRESH` re-firing inside `project` (one
//! [`Gaea::refresh_object`] per stale hit, on the refresh wave stage of
//! `kernel/parallel`).
//! [`ReadView::query`](super::readonly::ReadView::query) is the pinned
//! driver: it adds only its refusal of committing statements and its
//! [`KernelError::NoData`] on an empty step 1.
//!
//! Step 2 interpolates between bracketing snapshots when the query pins
//! an instant; step 3 derives:
//!
//! * **plan** — `Gaea::plan_inputs` builds the filtered Petri-net view
//!   of the catalog and the query's one `TokenPool`: every class's
//!   objects inside the spatial window, with their timestamps, from one
//!   scan per class. `derivation_plan` backward-chains from the goal
//!   class over the pool's marking — when the query pins an instant,
//!   first with temporal classes counted only at that instant, then over
//!   the whole window;
//! * **bind** — `Gaea::binding_candidates` draws each argument's
//!   candidates from the same pool, ranked by the same instant (exact
//!   query-instant matches first, co-temporal `SETOF` groups first); no
//!   object is loaded, and outputs an earlier wave committed join the
//!   pool (`TokenPool::admit`);
//! * **fire** — `Gaea::fire_plan` levels the plan's firings into
//!   dependency waves and runs every wave as choose → prepare → commit:
//!   `Gaea::choose_or_fire` walks the bounded candidate product, reusing
//!   identical *current* prior tasks (`exec::prior_derivation`),
//!   re-firing *stale* ones (their inputs were mutated after derivation),
//!   and skipping derivations the current plan already consumed; the
//!   chosen firings prepare on the `gaea-sched` workers and commit in
//!   node order;
//! * **project** — `Gaea::project_outcome` re-runs `retrieve` over the
//!   goal class so the answer is served from the store exactly like step
//!   1 would, staleness flags included.
//!
//! The declarative `RETRIEVE … WHERE …` surface (`gaea-lang`) lowers onto
//! these stages: WHERE attribute predicates join the step-1 retrieval
//! filter (and the planner's goal marking), `DERIVE USING p` pins the
//! goal's producer in the plan stage, `DERIVE COST oldest|newest`
//! overrides the bind stage's candidate ordering (falling back to the
//! fired process's declared `COST`, then to the heuristic), `FRESH`
//! re-fires stale step-1 hits instead of serving flagged history, and the
//! projection prunes returned attributes after every stage has run.

use super::access::{scan_class, scan_tokens, Token};
use super::exec::{count_reuse, prior_derivation, Prior};
use super::jobs::{pending_jobs_for, JobId};
use super::Gaea;
use crate::catalog::Catalog;
use crate::derivation::executor::{self, PreparedFiring, TaskRun};
use crate::derivation::net::DerivationNet;
use crate::error::{KernelError, KernelResult};
use crate::event::Event;
use crate::ids::{ClassId, ObjectId, ProcessId, TaskId};
use crate::object::{DataObject, SPATIAL_ATTR, TEMPORAL_ATTR};
use crate::query::{
    AccessPath, AttrCmp, Query, QueryMethod, QueryOutcome, QueryStrategy, QueryTarget, ScanPlan,
    TimeSel,
};
use crate::schema::{ClassDef, ProcessArg, ProcessDef, ProcessKind};
use crate::task::TaskKind;
use crate::template::Template;
use gaea_adt::{AbsTime, GeoBox, Value};
use gaea_petri::{plan_derivation, DerivationPlan, Marking, PlanFailure};
use gaea_sched::{DepGraph, NodeId};
use gaea_store::{Database, Oid, Predicate};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of the choose walker for one planned firing.
pub(crate) enum ChosenFiring {
    /// An identical current task was reused; its record answers the
    /// firing. `key` is the derivation's dedup key.
    Reused { run: TaskRun, key: String },
    /// These bindings passed the guards and await a prepare/commit cycle
    /// (or a background job). `key` is the dedup key the firing will
    /// record.
    Bound {
        bindings: executor::Bindings,
        key: String,
    },
    /// The identical derivation is already in flight as a background
    /// job ([`Gaea::submit_derivation`]); firing it again would record
    /// a duplicate. Synchronous callers surface this as
    /// [`KernelError::DerivationPending`]; a duplicate submission
    /// dedups to the id.
    Pending(JobId),
}

/// One query's token pool (§2.1.6: "tokens in every place represent the
/// data objects needed for the instantiation of a process"): every
/// class's stored objects inside the query's spatial window, with their
/// timestamps, from one scan per class. The plan stage counts its
/// markings and the bind stage draws every argument's candidates from
/// it, so the planner and the binder see the same tokens.
pub(crate) struct TokenPool {
    /// Window tokens per class, in OID order.
    tokens: BTreeMap<ClassId, Vec<Token>>,
    /// The marking with temporal classes counted only at the query's
    /// instant; `None` unless the query pins one.
    at_instant: Option<Marking>,
    /// The marking over the whole window.
    window: Marking,
    /// The query's spatial window.
    spatial: Option<GeoBox>,
}

impl TokenPool {
    /// Scan every class once under the query's window. A *target* class
    /// counts toward the markings only through a second scan under the
    /// full query predicate: an object at the wrong instant does not satisfy the goal, so it
    /// must not make the planner believe the goal is already stored.
    /// Every other temporal class counts, at a pinned instant, only its
    /// tokens stamped with that instant.
    pub(crate) fn scan(
        db: &Database,
        catalog: &Catalog,
        dnet: &DerivationNet,
        targets: &[String],
        q: &Query,
    ) -> KernelResult<TokenPool> {
        let at = match q.time {
            Some(TimeSel::At(t)) => Some(t),
            _ => None,
        };
        let mut tokens = BTreeMap::new();
        let (mut window, mut instant) = (BTreeMap::new(), BTreeMap::new());
        for (cid, def) in &catalog.classes {
            let pool = scan_tokens(db, def, &window_predicate(def, q.spatial))?;
            let all = pool.len() as u64;
            let (in_window, at_instant) = if targets.contains(&def.name) {
                let goal = scan_class(db, def, &retrieval_predicate(def, q))?.0.len() as u64;
                (goal, goal)
            } else if let (Some(t), true) = (at, def.has_temporal) {
                (
                    all,
                    pool.iter().filter(|(_, ts)| *ts == Some(t)).count() as u64,
                )
            } else {
                (all, all)
            };
            window.insert(*cid, in_window);
            instant.insert(*cid, at_instant);
            tokens.insert(*cid, pool);
        }
        Ok(TokenPool {
            tokens,
            at_instant: at.map(|_| dnet.marking(&instant)),
            window: dnet.marking(&window),
            spatial: q.spatial,
        })
    }

    /// The window tokens of one class, in OID order.
    fn tokens(&self, class: ClassId) -> &[Token] {
        self.tokens.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Admit objects a plan just committed: each joins its class's tokens
    /// if it lies in the window, so a later wave binds it exactly as a
    /// fresh scan would.
    pub(crate) fn admit(
        &mut self,
        db: &Database,
        catalog: &Catalog,
        outputs: &[ObjectId],
    ) -> KernelResult<()> {
        for &oid in outputs {
            let def = catalog.class(catalog.class_of_object(oid)?)?;
            let rel = db.relation(&def.relation_name())?;
            let tuple = rel.get(oid.0)?;
            if !window_predicate(def, self.spatial)
                .compile(rel.schema())?
                .matches(tuple)
            {
                continue;
            }
            let ts = rel.schema().position(TEMPORAL_ATTR).ok();
            let tokens = self.tokens.entry(def.id).or_default();
            let at = tokens.partition_point(|(o, _)| *o < oid);
            tokens.insert(at, (oid, ts.and_then(|p| tuple.get(p).as_abstime())));
        }
        Ok(())
    }
}

/// Plan stage, part 3: backward-chain from the goal class to a firing
/// plan over the pool's markings. A query that pins an instant plans
/// first with temporal classes counted only at that instant — inputs
/// stored at other instants must not make a plan look fireable whose
/// bindings then land elsewhere in time — and falls back to the whole
/// window's counts when that plan fails.
pub(crate) fn derivation_plan(
    dnet: &DerivationNet,
    pool: &TokenPool,
    goal: &ClassDef,
) -> Result<DerivationPlan, PlanFailure> {
    // Every catalog class is a place of the derivation net.
    let place = dnet.place_of[&goal.id];
    if let Some(Ok(plan)) = pool
        .at_instant
        .as_ref()
        .map(|instant| plan_derivation(&dnet.net, instant, place, 1))
    {
        return Ok(plan);
    }
    plan_derivation(&dnet.net, &pool.window, place, 1)
}

/// The window a query induces on one class: overlap with the query's box
/// when the class carries a spatial extent.
fn window_predicate(class: &ClassDef, spatial: Option<GeoBox>) -> Predicate {
    match spatial {
        Some(bbox) if class.has_spatial => Predicate::BoxOverlaps(SPATIAL_ATTR.into(), bbox),
        _ => Predicate::True,
    }
}

impl Gaea {
    // ------------------------------------------------------------------
    // The three-step query mechanism (§2.1.5)
    // ------------------------------------------------------------------

    /// Execute a query through retrieval → interpolation → derivation.
    ///
    /// Step-1 answers classify every hit against the store's MVCC version
    /// counters: derived objects whose recorded inputs drifted since
    /// derivation are still served (they are §2.1.1 history) but listed in
    /// [`QueryOutcome::stale`] so the caller can
    /// [`Gaea::refresh_object`](super::Gaea::refresh_object) them.
    pub fn query(&mut self, q: &Query) -> KernelResult<QueryOutcome> {
        traced(q, || self.query_stages(q))
    }

    /// The live driver's body: the shared read stages plus the stages
    /// that commit (see the module docs).
    fn query_stages(&mut self, q: &Query) -> KernelResult<QueryOutcome> {
        // Plan: resolve and validate, give the query's predicate-hot
        // attributes index or grid access paths on every large-enough
        // target extent, and commit finished background jobs (their
        // outputs are stored data this very query may retrieve).
        let class_names = {
            let _plan = gaea_obs::span("plan");
            let class_names = resolve(&self.catalog, q)?;
            self.ensure_access_paths(&class_names, q)?;
            self.pump_jobs();
            class_names
        };
        // Step 1: direct retrieval.
        let retrieved = retrieve_stage(&self.db, &self.catalog, &class_names, q)?;
        if !retrieved.objects.is_empty() {
            return self.finish_outcome(retrieved, &class_names, q);
        }
        // `DERIVE ASYNC`: nothing stored answers the query — submit the
        // derivation as a background job and return its id instead of
        // blocking on the (possibly minutes-long) firing.
        if q.async_submit {
            let _submit = gaea_obs::span("submit");
            let job = self.submit_derivation(q)?;
            // This query's own job leads; other in-flight jobs of the
            // target classes follow, honouring `pending`'s contract
            // (the submission may also have resolved instantly through
            // reuse, in which case only the listing here names it).
            let mut pending = vec![job];
            pending.extend(
                pending_jobs_for(&class_names, self.jobs_in_flight())
                    .into_iter()
                    .filter(|other| *other != job),
            );
            return Ok(QueryOutcome {
                objects: vec![],
                method: QueryMethod::Submitted,
                tasks: vec![],
                stale: vec![],
                pending,
                plans: vec![],
                profile: None,
            });
        }
        let steps: &[QueryMethod] = match q.strategy {
            QueryStrategy::RetrieveOnly => &[],
            QueryStrategy::PreferInterpolation => {
                &[QueryMethod::Interpolated, QueryMethod::Derived]
            }
            QueryStrategy::PreferDerivation => &[QueryMethod::Derived, QueryMethod::Interpolated],
        };
        let mut failures: Vec<String> = Vec::new();
        for step in steps {
            let attempt = match step {
                QueryMethod::Interpolated => {
                    let _interpolate = gaea_obs::span("interpolate");
                    self.try_interpolate(&class_names, q)
                }
                QueryMethod::Derived => {
                    let _derive = gaea_obs::span("derive");
                    self.try_derive(&class_names, q)
                }
                QueryMethod::Retrieved => unreachable!("retrieval ran first"),
                QueryMethod::Submitted => unreachable!("async submission returned above"),
            };
            match attempt {
                Ok(Some(outcome)) => return self.finish_outcome(outcome, &class_names, q),
                Ok(None) => failures.push(format!("{step:?}: not applicable")),
                Err(e) => failures.push(format!("{step:?}: {e}")),
            }
        }
        Err(KernelError::NoData(format!(
            "classes {class_names:?} hold no matching objects; {}",
            if failures.is_empty() {
                "strategy forbids computation".to_string()
            } else {
                failures.join("; ")
            }
        )))
    }

    /// The live project stage every step's answer passes through: honour
    /// `FRESH`, then [`serve`] the answer.
    ///
    /// `FRESH` is refuse-stale, not serve-history: every stale hit is
    /// re-fired through its own [`Gaea::refresh_object`] call (the
    /// refresh wave stage seeded with that hit: stale inputs re-derive
    /// first, and a derivation an earlier call re-fired is reused), and
    /// the answer is then served from the store again, exactly like step
    /// 1 — so a replacement only appears while it still satisfies the
    /// query's own predicates (a re-derivation may well move the
    /// timestamp or an attribute out of the queried window). Stale hits
    /// whose producer cannot be re-fired automatically (manual
    /// procedures, query-driven interpolations, interactive sessions)
    /// are *excluded* from the answer rather than served stale or
    /// allowed to fail the whole query. A query whose answer empties out
    /// under those rules errors with [`KernelError::NoData`].
    fn finish_outcome(
        &mut self,
        mut outcome: QueryOutcome,
        class_names: &[String],
        q: &Query,
    ) -> KernelResult<QueryOutcome> {
        let _project = gaea_obs::span("project");
        if q.fresh && !outcome.stale.is_empty() {
            // History that must not be served again: refreshed (replaced)
            // and refused (not auto-firable) stale objects.
            let mut excluded: BTreeSet<ObjectId> = BTreeSet::new();
            let mut pending: BTreeSet<ObjectId> = outcome.stale.drain(..).collect();
            let mut refused = 0usize;
            // Each round moves `pending` into `excluded`, so the loop is
            // bounded by the number of stored stale objects; replacements
            // are current by construction (the refresh schedule re-derives
            // stale inputs first).
            while !pending.is_empty() {
                for oid in std::mem::take(&mut pending) {
                    match self.refresh_object(oid) {
                        Ok(run) => outcome.tasks.push(run.task),
                        Err(KernelError::NotAutoFirable { .. }) => refused += 1,
                        Err(other) => return Err(other),
                    }
                    excluded.insert(oid);
                }
                let mut again = retrieve(&self.db, &self.catalog, class_names, q)?;
                again.objects.retain(|o| !excluded.contains(&o.id));
                // Re-retrieval can surface further stale objects the
                // original answer did not include; refresh those too.
                pending = again
                    .stale
                    .into_iter()
                    .filter(|oid| !excluded.contains(oid))
                    .collect();
                outcome.objects = again.objects;
                outcome.plans = again.plans;
            }
            if outcome.objects.is_empty() {
                return Err(KernelError::NoData(format!(
                    "FRESH refused {} stale hit(s){} and no current object satisfies \
                     the query; re-issue without FRESH to inspect the flagged history",
                    excluded.len(),
                    if refused > 0 {
                        format!(" ({refused} cannot be re-fired automatically)")
                    } else {
                        String::new()
                    }
                )));
            }
        }
        let pending = pending_jobs_for(class_names, self.jobs_in_flight());
        Ok(serve(outcome, q, pending))
    }

    /// Step 2: temporal interpolation. Applicable when the query pins an
    /// instant and a class stores bracketing image snapshots.
    fn try_interpolate(
        &mut self,
        classes: &[String],
        q: &Query,
    ) -> KernelResult<Option<QueryOutcome>> {
        let t = match q.time {
            Some(TimeSel::At(t)) => t,
            _ => return Ok(None),
        };
        for name in classes {
            let def = self.catalog.class_by_name(name)?.clone();
            if !def.has_temporal
                || def.attr("data").map(|a| a.tag) != Some(gaea_adt::TypeTag::Image)
            {
                continue;
            }
            // Spatially compatible snapshots with data + timestamps, in
            // OID order; only the bracketing pair is loaded.
            let spatial_query = Query {
                time: None,
                ..q.clone()
            };
            let pred =
                retrieval_predicate(&def, &spatial_query).and(Predicate::NotNull("data".into()));
            let snaps: Vec<(ObjectId, AbsTime)> = scan_tokens(&self.db, &def, &pred)?
                .into_iter()
                .filter_map(|(oid, ts)| Some((oid, ts?)))
                .collect();
            let earlier = snaps
                .iter()
                .filter(|(_, ts)| *ts < t)
                .max_by_key(|(_, ts)| *ts);
            let later = snaps
                .iter()
                .filter(|(_, ts)| *ts > t)
                .min_by_key(|(_, ts)| *ts);
            let (Some(&(earlier, t_earlier)), Some(&(later, t_later))) = (earlier, later) else {
                continue;
            };
            let (earlier, later) = (self.object(earlier)?, self.object(later)?);
            fn image(o: &DataObject) -> KernelResult<&gaea_adt::Image> {
                o.attr("data")
                    .and_then(Value::as_image)
                    .map(|img| &**img)
                    .ok_or_else(|| {
                        KernelError::Template("interpolation: data attr is not an image".into())
                    })
            }
            let img = gaea_raster::interp::temporal_interp(
                image(&earlier)?,
                t_earlier,
                image(&later)?,
                t_later,
                t,
            )?;
            // New object: the earlier snapshot's attributes, re-timed —
            // committed as a firing of the class's interpolation process.
            let mut attrs = earlier.attrs.clone();
            attrs.insert("data".into(), Value::image(img));
            attrs.insert(TEMPORAL_ATTR.into(), Value::AbsTime(t));
            let bindings = vec![
                ("earlier".to_string(), vec![earlier.id]),
                ("later".to_string(), vec![later.id]),
            ];
            let mut params = BTreeMap::new();
            params.insert("at".to_string(), Value::AbsTime(t));
            let process = self.interpolation_process(&def)?;
            let run = self.commit_firing(PreparedFiring {
                process,
                process_name: format!("interpolate_{}", def.name),
                output_class: def.id,
                input_versions: executor::input_versions_of(&self.db, &bindings),
                bindings,
                attrs,
                params,
                kind: TaskKind::Interpolation,
            })?;
            // The interpolation is fresh, but its bracketing snapshots may
            // themselves be stale derivations — classify like step 1 does,
            // so the same object answers consistently however it is served.
            let objects = vec![self.object(run.outputs[0])?];
            let stale = flag_stale(&self.db, &self.catalog, &objects);
            return Ok(Some(QueryOutcome {
                objects,
                method: QueryMethod::Interpolated,
                tasks: vec![run.task],
                stale,
                pending: vec![],
                plans: vec![],
                profile: None,
            }));
        }
        Ok(None)
    }

    /// The generic interpolation process for a class, lazily registered
    /// ("it is a generic derivation process which is applicable to many
    /// data types", §2.1.5) and logged like [`Gaea::define_process`].
    fn interpolation_process(&mut self, class: &ClassDef) -> KernelResult<ProcessId> {
        let name = format!("interpolate_{}", class.name);
        if let Ok(p) = self.catalog.process_by_name(&name) {
            return Ok(p.id);
        }
        let id = ProcessId(self.db.allocate_oid());
        self.commit_event(Event::DefineProcess {
            def: ProcessDef {
                id,
                name,
                output: class.id,
                args: vec![
                    ProcessArg::one("earlier", class.id),
                    ProcessArg::one("later", class.id),
                ],
                template: Template::default(),
                kind: ProcessKind::Primitive,
                interactions: vec![],
                cost: None,
                doc: "built-in linear temporal interpolation (kernel §2.1.5 step 2); \
                  the target instant is recorded as task parameter `at`"
                    .into(),
            },
        })?;
        Ok(id)
    }

    /// Step 3: derivation — plan over the Petri net, fire the plan,
    /// project the goal class back through retrieval.
    fn try_derive(&mut self, classes: &[String], q: &Query) -> KernelResult<Option<QueryOutcome>> {
        let (dnet, mut pool) = {
            let _plan = gaea_obs::span("plan");
            self.plan_inputs(classes, q)?
        };
        let mut all_tasks = Vec::new();
        for name in classes {
            let def = self.catalog.class_by_name(name)?.clone();
            let plan = {
                let _plan = gaea_obs::span("plan");
                match derivation_plan(&dnet, &pool, &def) {
                    Ok(p) => {
                        gaea_obs::note("firings", p.cost().to_string());
                        p
                    }
                    Err(failure) if classes.len() == 1 => {
                        return Err(KernelError::DerivationImpossible(format!(
                            "class {name}: missing base data in {:?}",
                            self.missing_base_classes(&dnet, &failure)
                        )))
                    }
                    // Try the next member class of the concept.
                    Err(_) => continue,
                }
            };
            all_tasks.extend({
                let _fire = gaea_obs::span("fire");
                self.fire_plan(&dnet, &plan, q, &mut pool)?
            });
            // Project: step 1 again over the now-extended extension.
            if let Some(outcome) = {
                let _project = gaea_obs::span("project");
                self.project_outcome(name, q, &all_tasks)?
            } {
                return Ok(Some(outcome));
            }
            // The derivation ran but extent transfer did not match the
            // query exactly (e.g. requested instant between snapshots):
            // fall through so interpolation can take over.
        }
        Ok(None)
    }

    /// Plan stage, part 1: the derivation net restricted to processes the
    /// kernel can fire without a scientist — plain primitives and external
    /// processes whose site is currently reachable. A `DERIVE USING p`
    /// query additionally removes every *other* producer of `p`'s output
    /// class, so the plan can only reach the goal through the pinned
    /// process (intermediate derivations stay open).
    pub(crate) fn plannable_net(&self, q: &Query) -> KernelResult<DerivationNet> {
        let pinned: Option<(ClassId, ProcessId)> = match &q.using_process {
            Some(name) => {
                let def = self.catalog.process_by_name(name)?;
                Some((def.output, def.id))
            }
            None => None,
        };
        Ok(DerivationNet::build_filtered(&self.catalog, |def| {
            if let Some((goal, pid)) = pinned {
                if def.output == goal && def.id != pid {
                    return false;
                }
            }
            match &def.kind {
                ProcessKind::Primitive => !def.is_interactive(),
                ProcessKind::External { site } => self.externals.reachable_site(site).is_some(),
                ProcessKind::Compound(_) | ProcessKind::NonApplicative { .. } => false,
            }
        }))
    }

    /// Plan stage, part 2: the plannable net and the query's token pool
    /// over it — the inputs [`derivation_plan`] and the binder share, for
    /// a synchronous derivation and a submitted one alike.
    pub(crate) fn plan_inputs(
        &self,
        targets: &[String],
        q: &Query,
    ) -> KernelResult<(DerivationNet, TokenPool)> {
        let dnet = self.plannable_net(q)?;
        let pool = TokenPool::scan(&self.db, &self.catalog, &dnet, targets, q)?;
        Ok((dnet, pool))
    }

    /// Diagnosis for a failed plan: which base classes lack data.
    fn missing_base_classes(&self, dnet: &DerivationNet, failure: &PlanFailure) -> Vec<String> {
        failure
            .missing_base
            .iter()
            .filter_map(|p| dnet.class_at(*p))
            .filter_map(|c| self.catalog.class(c).ok().map(|d| d.name.clone()))
            .collect()
    }

    /// Fire stage: realize every firing of the plan. The firings become a
    /// dependency DAG (one node per firing instance; an edge wherever one
    /// firing's output class feeds another's inputs) executed wave by
    /// wave, each wave as choose → prepare → commit. Bindings are
    /// *chosen* serially — guards decide admissibility, and each choice
    /// excludes its dedup key so repetitions of a process realize
    /// distinct derivations — then the template evaluations prepare on
    /// the scheduler ([`Gaea::prepare_firings`]), and the results commit
    /// in node order. Reused current tasks short-circuit in the choose
    /// phase and never reach a worker. Committed outputs join `pool`, so
    /// the next wave binds them.
    fn fire_plan(
        &mut self,
        dnet: &DerivationNet,
        plan: &DerivationPlan,
        q: &Query,
        pool: &mut TokenPool,
    ) -> KernelResult<Vec<TaskId>> {
        let mut graph: DepGraph<ProcessId> = DepGraph::new();
        for (tid, times) in &plan.firings {
            let pid = dnet
                .process_at(*tid)
                .expect("planner only uses catalog transitions");
            for _rep in 0..*times {
                graph.add_node(pid);
            }
        }
        for i in 0..graph.len() {
            for j in 0..graph.len() {
                let (pi, pj) = (*graph.payload(NodeId(i)), *graph.payload(NodeId(j)));
                if i == j {
                    continue;
                }
                if pi == pj {
                    // Repetitions of the same process are independent —
                    // *unless* the process feeds itself (its output class
                    // is among its own input classes): then firing k+1 may
                    // bind firing k's output, so the repetitions must
                    // order by node id, not share a wave.
                    let def = self.catalog.process(pi)?;
                    if i < j && def.args.iter().any(|a| a.class == def.output) {
                        graph
                            .add_edge(NodeId(i), NodeId(j))
                            .expect("distinct nodes cannot self-loop");
                    }
                    continue;
                }
                let out_i = self.catalog.process(pi)?.output;
                if self
                    .catalog
                    .process(pj)?
                    .args
                    .iter()
                    .any(|a| a.class == out_i)
                {
                    graph
                        .add_edge(NodeId(i), NodeId(j))
                        .expect("distinct nodes cannot self-loop");
                }
            }
        }
        // A cyclic class graph (A derives B derives A) admits no wave
        // order; every firing then runs as a one-node wave, in the plan's
        // own firing order (the node insertion order).
        let waves = graph
            .waves()
            .unwrap_or_else(|_| (0..graph.len()).map(|i| vec![NodeId(i)]).collect());
        let mut fired_keys: BTreeSet<String> = BTreeSet::new();
        let mut tasks = Vec::new();
        for wave in &waves {
            gaea_obs::note("wave_width", wave.len().to_string());
            // Choose phase (serial): admissible bindings or reused tasks.
            let mut bound: Vec<(ProcessId, executor::Bindings)> = Vec::with_capacity(wave.len());
            for node in wave {
                let pid = *graph.payload(*node);
                match self.choose_or_fire(pid, q, pool, &fired_keys)? {
                    ChosenFiring::Reused { run, key } => {
                        fired_keys.insert(key);
                        tasks.push(run.task);
                    }
                    ChosenFiring::Bound { bindings, key } => {
                        fired_keys.insert(key);
                        bound.push((pid, bindings));
                    }
                    // A background job is already realizing this firing;
                    // the plan cannot complete synchronously without
                    // duplicating it.
                    ChosenFiring::Pending(job) => {
                        return Err(KernelError::DerivationPending {
                            process: self.catalog.process(pid)?.name.clone(),
                            job,
                        })
                    }
                }
            }
            // Prepare phase (parallel), then commit phase (serial, node
            // order).
            for prepared in self.prepare_firings(bound) {
                let run = self.commit_firing(prepared?)?;
                pool.admit(&self.db, &self.catalog, &run.outputs)?;
                tasks.push(run.task);
            }
        }
        Ok(tasks)
    }

    /// Project stage: serve the derived answer through [`retrieve`],
    /// exactly like step 1 would, so callers observe store-resident
    /// objects — including the staleness classification, since the
    /// projection can pick up previously stored (possibly stale) objects
    /// alongside the freshly derived ones.
    fn project_outcome(
        &self,
        class: &str,
        q: &Query,
        tasks: &[TaskId],
    ) -> KernelResult<Option<QueryOutcome>> {
        let outcome = retrieve(&self.db, &self.catalog, &[class.to_string()], q)?;
        Ok((!outcome.objects.is_empty()).then(|| QueryOutcome {
            method: QueryMethod::Derived,
            tasks: tasks.to_vec(),
            ..outcome
        }))
    }

    /// Bind stage: enumerate candidate input selections per argument of
    /// `def` from the query's token pool, deterministically ordered —
    /// exact query-instant matches first, then by timestamp, then id.
    /// `SETOF` arguments get co-temporal groups first (they satisfy
    /// `common(timestamp)` guards), then a pool prefix.
    ///
    /// A declared cost hint replaces the heuristic's timestamp order: the
    /// query's `DERIVE COST …` wins over the fired process's own `COST`
    /// declaration, and with neither the heuristic stands (`COST oldest`
    /// pins the heuristic's order, `COST newest` reverses it).
    fn binding_candidates(
        &self,
        def: &ProcessDef,
        q: &Query,
        pool: &TokenPool,
    ) -> KernelResult<Vec<Vec<Vec<ObjectId>>>> {
        // The instant the query pins, if any: bindings matching it are
        // preferred so that invariantly transferred timestamps land on the
        // requested time.
        let target_time = match q.time {
            Some(TimeSel::At(t)) => Some(t),
            _ => None,
        };
        let hint = q.cost.or(self.catalog.cost_hint(def.id));
        let newest_first = hint == Some(crate::query::CostHint::Newest);
        // One shared ordering for tokens and SETOF groups alike:
        // exact-instant mismatches last, then the (possibly reversed)
        // timestamp order — under `newest` the reversal also moves
        // timestamp-less objects to the back, exactly like the old
        // `cmp::Reverse` key did.
        let mismatch = |t: Option<AbsTime>| target_time.is_some() && t != target_time;
        let ts_order = |a: Option<AbsTime>, b: Option<AbsTime>| {
            let ord = mismatch(a).cmp(&mismatch(b));
            if newest_first {
                ord.then(b.cmp(&a))
            } else {
                ord.then(a.cmp(&b))
            }
        };
        // Candidate selections per argument.
        let mut candidates: Vec<Vec<Vec<ObjectId>>> = Vec::with_capacity(def.args.len());
        for arg in &def.args {
            let mut tokens = pool.tokens(arg.class).to_vec();
            tokens.sort_by(|(xo, xt), (yo, yt)| ts_order(*xt, *yt).then(xo.cmp(yo)));
            let mut cands: Vec<Vec<ObjectId>> = Vec::new();
            if arg.setof {
                let mut groups: BTreeMap<Option<AbsTime>, Vec<ObjectId>> = BTreeMap::new();
                for (oid, ts) in &tokens {
                    groups.entry(*ts).or_default().push(*oid);
                }
                let mut grouped: Vec<(Option<AbsTime>, Vec<ObjectId>)> =
                    groups.into_iter().collect();
                // Exact-time groups lead; within the rest, the hinted (or
                // heuristic) timestamp order applies.
                grouped.sort_by(|(ta, _), (tb, _)| ts_order(*ta, *tb));
                for (_, group) in &grouped {
                    if group.len() as u64 >= arg.min_card {
                        cands.push(group[..arg.min_card as usize].to_vec());
                    }
                }
                if tokens.len() as u64 >= arg.min_card {
                    let prefix: Vec<ObjectId> = tokens[..arg.min_card as usize]
                        .iter()
                        .map(|(oid, _)| *oid)
                        .collect();
                    if !cands.contains(&prefix) {
                        cands.push(prefix);
                    }
                }
            } else {
                cands.extend(tokens.iter().map(|(oid, _)| vec![*oid]));
            }
            if cands.is_empty() {
                return Err(KernelError::DerivationImpossible(format!(
                    "process {}: no stored objects satisfy argument {:?} (need {} of class {})",
                    def.name,
                    arg.name,
                    arg.min_card,
                    self.catalog.class(arg.class)?.name
                )));
            }
            candidates.push(cands);
        }
        Ok(candidates)
    }

    /// Choose input objects for one firing of `pid` — the fire stage's
    /// choose phase and [`Gaea::submit_derivation`]'s binding step. Walks
    /// the bounded candidate product [`Gaea::binding_candidates`] draws
    /// from `pool`:
    /// bindings whose dedup key is in `exclude` are skipped outright (the
    /// current plan already consumed that derivation); every other
    /// binding asks [`prior_derivation`] first. A *current* prior task
    /// is reused ([`ChosenFiring::Reused`]) and an identical in-flight
    /// background job attached to ([`ChosenFiring::Pending`]: the
    /// caller refuses to duplicate it, or dedups a submission to it), so
    /// the kernel never silently duplicates a derivation. A *stale*
    /// prior, or one whose outputs were deleted, is history, so
    /// re-firing it is allowed: the first fresh binding whose guards
    /// pass comes back as [`ChosenFiring::Bound`] for a prepare/commit
    /// cycle (or a background job).
    pub(crate) fn choose_or_fire(
        &self,
        pid: ProcessId,
        q: &Query,
        pool: &TokenPool,
        exclude: &BTreeSet<String>,
    ) -> KernelResult<ChosenFiring> {
        let def = self.catalog.process(pid)?;
        // Derivations other sessions already launched: never double-fire.
        let in_flight = self.jobs_in_flight_keys();
        // Bind stage: admissible selections per argument.
        let candidates = {
            let _bind = gaea_obs::span("bind");
            self.binding_candidates(def, q, pool)?
        };
        // Walk the (bounded) cartesian product.
        let mut budget = self.binding_budget;
        let mut indices = vec![0usize; candidates.len()];
        let mut last_err: Option<KernelError> = None;
        'combos: loop {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let bindings: Vec<(String, Vec<ObjectId>)> = def
                .args
                .iter()
                .zip(&indices)
                .zip(&candidates)
                .map(|((arg, idx), cands)| (arg.name.clone(), cands[*idx].clone()))
                .collect();
            // Distinct scalar args of the same class should bind distinct
            // objects (earlier/later must differ).
            let mut scalar_seen: BTreeSet<ObjectId> = BTreeSet::new();
            let mut degenerate = false;
            for (arg, (_, objs)) in def.args.iter().zip(&bindings) {
                if !arg.setof && !scalar_seen.insert(objs[0]) {
                    degenerate = true;
                }
            }
            // An excluded key was already consumed by the current plan; a
            // repetition must find different inputs. The key is built once
            // per binding: the exclusion check and the identity check
            // share it.
            let key = (!degenerate).then(|| dedup_key_for(def, &bindings));
            if let Some(key) = key.filter(|k| !exclude.contains(k)) {
                // A current prior is reused and an in-flight job attached
                // to, so the kernel never silently duplicates a
                // derivation; a stale prior is history, and re-firing it
                // is the refresh its mutated inputs call for.
                match prior_derivation(&self.db, &self.catalog, &in_flight, def.id, &key) {
                    Prior::Current(run) => {
                        count_reuse(true);
                        return Ok(ChosenFiring::Reused { run, key });
                    }
                    Prior::InFlight(job) => return Ok(ChosenFiring::Pending(job)),
                    // The guards alone decide admissibility here; the
                    // mapping evaluation belongs to the prepare phase.
                    Prior::Fresh => match executor::check_guards(
                        &self.db,
                        &self.catalog,
                        &self.registry,
                        def,
                        &bindings,
                    ) {
                        Ok(()) => {
                            count_reuse(false);
                            return Ok(ChosenFiring::Bound { bindings, key });
                        }
                        Err(e @ KernelError::AssertionFailed { .. }) => {
                            last_err = Some(e); // guard rejected: next binding
                        }
                        Err(other) => return Err(other),
                    },
                }
            }
            // Advance the product.
            for i in (0..indices.len()).rev() {
                indices[i] += 1;
                if indices[i] < candidates[i].len() {
                    continue 'combos;
                }
                indices[i] = 0;
                if i == 0 {
                    break 'combos;
                }
            }
            if indices.iter().all(|i| *i == 0) {
                break;
            }
        }
        Err(last_err.unwrap_or_else(|| {
            KernelError::DerivationImpossible(format!(
                "process {}: no admissible input binding found",
                def.name
            ))
        }))
    }
}

/// The dedup key a fresh firing of `def` on `bindings` *would* record —
/// byte-compatible with `Task::dedup_key` (both delegate to
/// `task::dedup_key_parts`), including the parameters the executor
/// stamps on the task: an external firing records its `site`, so the
/// prospective key carries it too. Without that agreement, recorded
/// external derivations would never match the walker's keys and every
/// reuse/dedup layer (prior-task reuse, in-flight job dedup, refresh
/// duplicate guards) would silently re-fire them.
pub(crate) fn dedup_key_for(def: &ProcessDef, bindings: &[(String, Vec<ObjectId>)]) -> String {
    let inputs: BTreeMap<String, Vec<ObjectId>> = bindings.iter().cloned().collect();
    let mut params: BTreeMap<String, Value> = BTreeMap::new();
    if let ProcessKind::External { site } = &def.kind {
        params.insert("site".to_string(), Value::Text(site.clone()));
    }
    crate::task::dedup_key_parts(def.id, &inputs, &params)
}

// ----------------------------------------------------------------------
// The read stages both drivers run.
//
// Free of `&Gaea`: each takes the store and catalog it reads, so the
// live driver ([`Gaea::query`]) passes the kernel's own and the pinned
// driver ([`super::readonly::ReadView::query`]) passes its snapshot's.
// Neither commits anything; every committing stage is a `Gaea` method
// above.
// ----------------------------------------------------------------------

/// Run one statement body under its observability trace: the stage
/// spans the body opens become the outcome's `EXPLAIN ANALYZE` profile,
/// and slow traces are retained in the process-wide ring. A failed
/// statement still finalizes the trace through the guard's drop.
pub(crate) fn traced(
    q: &Query,
    body: impl FnOnce() -> KernelResult<QueryOutcome>,
) -> KernelResult<QueryOutcome> {
    let tracer = gaea_obs::start_trace("query", q.target.name());
    let mut result = body();
    if let Ok(outcome) = &mut result {
        if let Some(trace) = tracer.finish() {
            crate::query::apply_trace(outcome, &trace);
        }
    }
    result
}

/// Resolve stage: the query's target (class or concept) as concrete
/// class names, validated against the catalog before any other stage
/// runs.
pub(crate) fn resolve(catalog: &Catalog, q: &Query) -> KernelResult<Vec<String>> {
    let classes: Vec<String> = match &q.target {
        QueryTarget::Class(name) => vec![catalog.class_by_name(name)?.name.clone()],
        QueryTarget::Concept(name) => catalog
            .concept_member_classes(name)?
            .iter()
            .map(|c| c.name.clone())
            .collect(),
    };
    validate_query(catalog, &classes, q)?;
    Ok(classes)
}

/// Validate the declarative parts of a query: attribute predicates must
/// name attributes every target class carries (extents included) *at the
/// predicate constant's own type* — a cross-type comparison would
/// silently match nothing — projections and `ORDER BY` must name known
/// attributes, and a pinned `USING` process must exist and produce a
/// target class.
fn validate_query(catalog: &Catalog, classes: &[String], q: &Query) -> KernelResult<()> {
    for name in classes {
        let def = catalog.class_by_name(name)?;
        for pred in &q.attr_preds {
            let Some(attr) = def.attr(&pred.attr) else {
                return Err(KernelError::Schema(format!(
                    "query predicate on unknown attribute {:?} of class {}",
                    pred.attr, def.name
                )));
            };
            if attr.tag != pred.value.type_tag() {
                return Err(KernelError::Schema(format!(
                    "query predicate compares attribute {:?} of class {} ({}) \
                     against a {} constant",
                    pred.attr,
                    def.name,
                    attr.tag,
                    pred.value.type_tag()
                )));
            }
        }
        for attr in &q.projection {
            if def.attr(attr).is_none() {
                return Err(KernelError::Schema(format!(
                    "query projects unknown attribute {attr:?} of class {}",
                    def.name
                )));
            }
        }
        if let Some(ob) = &q.order_by {
            if def.attr(&ob.attr).is_none() {
                return Err(KernelError::Schema(format!(
                    "query orders by unknown attribute {:?} of class {}",
                    ob.attr, def.name
                )));
            }
        }
    }
    if let Some(pname) = &q.using_process {
        let pdef = catalog.process_by_name(pname)?;
        let out = catalog.class(pdef.output)?;
        if !classes.contains(&out.name) {
            return Err(KernelError::Schema(format!(
                "USING process {pname} derives class {}, not the query target {classes:?}",
                out.name
            )));
        }
    }
    Ok(())
}

/// The step-1 retrieval predicate a query induces on one target class:
/// spatial overlap and temporal selection (when the class carries the
/// extents) joined with the declarative WHERE conjuncts.
pub(crate) fn retrieval_predicate(class: &ClassDef, q: &Query) -> Predicate {
    let mut pred = window_predicate(class, q.spatial);
    if class.has_temporal {
        match q.time {
            Some(TimeSel::At(t)) => {
                pred = pred.and(Predicate::Eq(TEMPORAL_ATTR.into(), Value::AbsTime(t)));
            }
            Some(TimeSel::In(r)) => {
                pred = pred.and(Predicate::TimeIn(TEMPORAL_ATTR.into(), r));
            }
            None => {}
        }
    }
    // Declarative WHERE predicates (validated against the class by
    // `validate_query`) filter step-1 retrieval and, through
    // `TokenPool::scan`, keep the planner from counting goal objects
    // that cannot satisfy the query.
    for ap in &q.attr_preds {
        pred = pred.and(match ap.cmp {
            AttrCmp::Eq => Predicate::Eq(ap.attr.clone(), ap.value.clone()),
            AttrCmp::Lt => Predicate::Lt(ap.attr.clone(), ap.value.clone()),
            AttrCmp::Gt => Predicate::Gt(ap.attr.clone(), ap.value.clone()),
        });
    }
    pred
}

/// Retrieve stage: [`retrieve`] inside the `retrieve` span, each scan's
/// access path noted for `EXPLAIN ANALYZE`.
pub(crate) fn retrieve_stage(
    db: &Database,
    catalog: &Catalog,
    classes: &[String],
    q: &Query,
) -> KernelResult<QueryOutcome> {
    let _retrieve = gaea_obs::span("retrieve");
    let outcome = retrieve(db, catalog, classes, q)?;
    for p in &outcome.plans {
        gaea_obs::note("path", p.to_string());
    }
    Ok(outcome)
}

/// Step-1 retrieval through the optimizer: each class extent scans via
/// [`scan_class`] (cheapest index/grid path, full-predicate residual
/// re-check), every hit is classified against the store's version
/// counters, and the answer comes back as a `Retrieved` outcome with one
/// EXPLAIN record per scanned extent.
pub(crate) fn retrieve(
    db: &Database,
    catalog: &Catalog,
    classes: &[String],
    q: &Query,
) -> KernelResult<QueryOutcome> {
    let (objects, plans) = match retrieve_ordered_limit(db, catalog, classes, q)? {
        Some(short) => short,
        None => {
            let mut objects = Vec::new();
            let mut plans = Vec::new();
            for name in classes {
                let def = catalog.class_by_name(name)?;
                let (oids, plan) = scan_class(db, def, &retrieval_predicate(def, q))?;
                plans.push(plan);
                for oid in oids {
                    objects.push(executor::load_object(db, catalog, ObjectId(oid))?);
                }
            }
            (objects, plans)
        }
    };
    let stale = flag_stale(db, catalog, &objects);
    Ok(QueryOutcome {
        objects,
        method: QueryMethod::Retrieved,
        tasks: vec![],
        stale,
        pending: vec![],
        plans,
        profile: None,
    })
}

/// `ORDER BY attr LIMIT n` over a single class whose order attribute
/// carries an index walks [`gaea_store::index::OrderedIndex::sorted_oids`]
/// in query order and stops as soon as `n` rows matched — plus every
/// remaining tie of the boundary key, so the exact (value, id)-ordered
/// top-N survives the final sort-and-truncate in [`serve`].
/// `FRESH` queries skip the short-circuit: the refusal loop must see the
/// full answer to classify it.
fn retrieve_ordered_limit(
    db: &Database,
    catalog: &Catalog,
    classes: &[String],
    q: &Query,
) -> KernelResult<Option<(Vec<DataObject>, Vec<ScanPlan>)>> {
    let (Some(ob), Some(limit)) = (&q.order_by, q.limit) else {
        return Ok(None);
    };
    if classes.len() != 1 || q.fresh || limit == 0 {
        return Ok(None);
    }
    let def = catalog.class_by_name(&classes[0])?;
    let rel = db.relation(&def.relation_name())?;
    let Ok(pos) = rel.schema().position(&ob.attr) else {
        return Ok(None);
    };
    let Some(idx) = rel.index_for(pos) else {
        return Ok(None);
    };
    let compiled = retrieval_predicate(def, q).compile(rel.schema())?;
    let mut oids: Vec<Oid> = Vec::new();
    // Key of the limit-th matched row: the walk continues through
    // its ties and stops at the first different key.
    let mut boundary: Option<Value> = None;
    for oid in idx.sorted_oids(ob.desc) {
        let Ok(tuple) = rel.get(oid) else { continue };
        if !compiled.matches(tuple) {
            continue;
        }
        if let Some(b) = &boundary {
            if tuple.get(pos) != b {
                break;
            }
            oids.push(oid);
        } else {
            oids.push(oid);
            if oids.len() as u64 >= limit {
                boundary = Some(tuple.get(pos).clone());
            }
        }
    }
    let objects = oids
        .into_iter()
        .map(|oid| executor::load_object(db, catalog, ObjectId(oid)))
        .collect::<KernelResult<Vec<_>>>()?;
    let plan = ScanPlan {
        class: def.name.clone(),
        path: AccessPath::IndexOrdered {
            attr: ob.attr.clone(),
        },
        estimated_rows: limit,
    };
    Ok(Some((objects, vec![plan])))
}

/// Classify retrieved objects against a store's version counters;
/// returns the stale subset. One staleness memo is shared across all
/// hits (their derivations typically share ancestors).
fn flag_stale(db: &Database, catalog: &Catalog, hits: &[DataObject]) -> Vec<ObjectId> {
    let mut memo = super::exec::StaleMemo::new();
    hits.iter()
        .filter(|o| super::exec::object_is_stale(db, catalog, o.id, &mut memo))
        .map(|o| o.id)
        .collect()
}

/// Serve stage, the answer-shaping tail every outcome passes through:
/// ORDER BY in canonical (value, id) order — `None` attributes sort
/// first, descending reverses the value order but ids still break ties
/// ascending — then the LIMIT cutoff (which prunes the staleness flags
/// to the surviving objects), then the projection. `pending` (see
/// [`pending_jobs_for`]) surfaces every in-flight background derivation
/// of a target class: the answer may be about to grow (or to replace a
/// stale hit), and the caller can await the listed jobs.
pub(crate) fn serve(mut outcome: QueryOutcome, q: &Query, pending: Vec<JobId>) -> QueryOutcome {
    if let Some(ob) = &q.order_by {
        outcome.objects.sort_by(|a, b| {
            let ord = a.attr(&ob.attr).cmp(&b.attr(&ob.attr));
            let ord = if ob.desc { ord.reverse() } else { ord };
            ord.then(a.id.cmp(&b.id))
        });
    }
    if let Some(limit) = q.limit {
        outcome
            .objects
            .truncate(usize::try_from(limit).unwrap_or(usize::MAX));
        let kept: BTreeSet<ObjectId> = outcome.objects.iter().map(|o| o.id).collect();
        outcome.stale.retain(|id| kept.contains(id));
    }
    if !q.projection.is_empty() {
        for obj in &mut outcome.objects {
            obj.attrs.retain(|name, _| q.projection.contains(name));
        }
    }
    outcome.pending = pending;
    outcome
}
