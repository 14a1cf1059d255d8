//! Definition-time semantics: classes, concepts, processes (§2.1.2–§2.1.4).
//!
//! The paper's `CLASS` / `DEFINE PROCESS` statements land here.
//! [`ClassSpec`] and [`ProcessSpec`] are the builder forms the definition
//! language (`gaea-lang`) lowers into; `define_*` validate everything the
//! paper requires at definition time — output classes must be derived,
//! template references must be declared, compound step wiring must be
//! class-compatible, interaction previews may only use earlier answers —
//! and then write catalog records. Nothing here executes: execution
//! belongs to [`super::exec`], planning to [`super::query`].

use super::Gaea;
use crate::error::{KernelError, KernelResult};
use crate::event::Event;
use crate::ids::{ClassId, ConceptId, ProcessId};
use crate::query::CostHint;
use crate::schema::{
    AttrDef, ClassDef, ClassKind, CompoundStep, Concept, InteractionPoint, ProcessArg, ProcessDef,
    ProcessKind, StepSource,
};
use crate::template::{Expr, Template};
use gaea_adt::TypeTag;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name.
    pub name: String,
    /// Base or derived.
    pub kind: ClassKind,
    /// Ordinary attributes.
    pub attrs: Vec<AttrDef>,
    /// Reference attributes, as (attr name, referenced class name) pairs,
    /// resolved against the catalog at definition time (§4.3 extension).
    pub ref_attrs: Vec<(String, String)>,
    /// Carry a spatial extent?
    pub spatial: bool,
    /// Carry a temporal extent?
    pub temporal: bool,
    /// Documentation.
    pub doc: String,
}

impl ClassSpec {
    /// A base class with both extents (the common case for scenes).
    pub fn base(name: &str) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            kind: ClassKind::Base,
            attrs: vec![],
            ref_attrs: vec![],
            spatial: true,
            temporal: true,
            doc: String::new(),
        }
    }

    /// A derived class with both extents.
    pub fn derived(name: &str) -> ClassSpec {
        ClassSpec {
            kind: ClassKind::Derived,
            ..ClassSpec::base(name)
        }
    }

    /// Add an attribute.
    pub fn attr(mut self, name: &str, tag: gaea_adt::TypeTag) -> ClassSpec {
        self.attrs.push(AttrDef::new(name, tag));
        self
    }

    /// Add a reference attribute pointing at objects of `class` (§4.3
    /// extension: non-primitive classes as attribute types).
    pub fn ref_attr(mut self, name: &str, class: &str) -> ClassSpec {
        self.ref_attrs.push((name.into(), class.into()));
        self
    }

    /// Disable extents (for aspatial classes).
    pub fn no_extents(mut self) -> ClassSpec {
        self.spatial = false;
        self.temporal = false;
        self
    }

    /// Attach documentation.
    pub fn doc(mut self, d: &str) -> ClassSpec {
        self.doc = d.into();
        self
    }
}

/// Specification for a new primitive process.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Process name.
    pub name: String,
    /// Output class name.
    pub output: String,
    /// Arguments: (name, class name, setof, min_card).
    pub args: Vec<(String, String, bool, u64)>,
    /// The TEMPLATE.
    pub template: Template,
    /// Interaction points (§4.3 extension), in consultation order.
    pub interactions: Vec<InteractionPoint>,
    /// Declared cost hint for the bind stage (`COST oldest` / `COST
    /// newest`); `None` keeps the built-in binding heuristic.
    pub cost: Option<CostHint>,
    /// Documentation.
    pub doc: String,
}

impl ProcessSpec {
    /// Start a spec.
    pub fn new(name: &str, output: &str) -> ProcessSpec {
        ProcessSpec {
            name: name.into(),
            output: output.into(),
            args: vec![],
            template: Template::default(),
            interactions: vec![],
            cost: None,
            doc: String::new(),
        }
    }

    /// Scalar argument.
    pub fn arg(mut self, name: &str, class: &str) -> ProcessSpec {
        self.args.push((name.into(), class.into(), false, 1));
        self
    }

    /// `SETOF` argument.
    pub fn setof_arg(mut self, name: &str, class: &str, min_card: u64) -> ProcessSpec {
        self.args.push((name.into(), class.into(), true, min_card));
        self
    }

    /// Attach the template.
    pub fn template(mut self, t: Template) -> ProcessSpec {
        self.template = t;
        self
    }

    /// Declare an interaction point: the task will suspend, show nothing,
    /// and wait for a `param` of type `expected` (§4.3 extension).
    pub fn interact(mut self, param: &str, prompt: &str, expected: TypeTag) -> ProcessSpec {
        self.interactions.push(InteractionPoint {
            param: param.into(),
            prompt: prompt.into(),
            preview: None,
            expected,
        });
        self
    }

    /// Declare an interaction point with a preview expression — the
    /// "temporary result visualized on the screen" the scientist inspects
    /// before answering.
    pub fn interact_preview(
        mut self,
        param: &str,
        prompt: &str,
        expected: TypeTag,
        preview: Expr,
    ) -> ProcessSpec {
        self.interactions.push(InteractionPoint {
            param: param.into(),
            prompt: prompt.into(),
            preview: Some(preview),
            expected,
        });
        self
    }

    /// Declare the bind-stage cost hint queries fall back to when they do
    /// not carry a `DERIVE COST …` of their own.
    pub fn cost_hint(mut self, hint: CostHint) -> ProcessSpec {
        self.cost = Some(hint);
        self
    }

    /// Attach documentation.
    pub fn doc(mut self, d: &str) -> ProcessSpec {
        self.doc = d.into();
        self
    }
}

impl Gaea {
    // ------------------------------------------------------------------
    // Definitions
    // ------------------------------------------------------------------

    /// Define a non-primitive class and create its extension relation.
    /// Reference attributes are resolved against already-defined classes
    /// (self-references are permitted: the class may reference itself).
    pub fn define_class(&mut self, spec: ClassSpec) -> KernelResult<ClassId> {
        self.catalog.check_fresh("class", &spec.name)?;
        // Resolve references before allocating the id, so a failed
        // definition leaves no trace; `None` is a self-reference.
        let targets = spec
            .ref_attrs
            .iter()
            .map(|(_, class_name)| {
                if *class_name == spec.name {
                    Ok(None)
                } else {
                    self.catalog.class_by_name(class_name).map(|c| Some(c.id))
                }
            })
            .collect::<KernelResult<Vec<_>>>()?;
        let id = ClassId(self.db.allocate_oid());
        let mut attrs = spec.attrs;
        for ((attr_name, _), target) in spec.ref_attrs.iter().zip(targets) {
            attrs.push(AttrDef::reference(attr_name, target.unwrap_or(id)));
        }
        let def = ClassDef {
            id,
            name: spec.name,
            kind: spec.kind,
            attrs,
            has_spatial: spec.spatial,
            has_temporal: spec.temporal,
            derived_by: vec![],
            doc: spec.doc,
        };
        self.commit_event(Event::DefineClass { def })?;
        Ok(id)
    }

    /// Define an access path on one class attribute (`DEFINE INDEX attr
    /// ON class`): GeoBox-tagged attributes get a spatial grid, everything
    /// else an ordered index. Explicit definition ignores the
    /// auto-indexing size threshold and is idempotent — re-defining an
    /// existing path is a no-op, matching the auto-indexer's behaviour.
    pub fn define_index(&mut self, class: &str, attr: &str) -> KernelResult<()> {
        let def = self.catalog.class_by_name(class)?.clone();
        let Some(adef) = def.attr(attr) else {
            return Err(KernelError::Schema(format!(
                "DEFINE INDEX names unknown attribute {attr:?} of class {class}"
            )));
        };
        if adef.tag == gaea_adt::TypeTag::GeoBox {
            self.ensure_grid(&def, attr)?;
        } else {
            self.ensure_index(&def, attr)?;
        }
        Ok(())
    }

    /// Define a concept over existing classes with optional ISA parents.
    pub fn define_concept(
        &mut self,
        name: &str,
        members: &[&str],
        parents: &[&str],
        doc: &str,
    ) -> KernelResult<ConceptId> {
        let mut member_ids = BTreeSet::new();
        for m in members {
            member_ids.insert(self.catalog.class_by_name(m)?.id);
        }
        let mut parent_ids = Vec::new();
        for p in parents {
            parent_ids.push(self.catalog.concept_by_name(p)?.id);
        }
        self.catalog.check_fresh("concept", name)?;
        let id = ConceptId(self.db.allocate_oid());
        self.commit_event(Event::DefineConcept {
            def: Concept {
                id,
                name: name.into(),
                members: member_ids,
                parents: parent_ids,
                doc: doc.into(),
            },
        })?;
        Ok(id)
    }

    /// Define a primitive process. Validates that the output class exists
    /// and is derived, argument classes exist, template argument references
    /// are declared, and mapped attributes exist on the output class.
    pub fn define_process(&mut self, spec: ProcessSpec) -> KernelResult<ProcessId> {
        let def = self.primitive_process_def(spec)?;
        self.commit_process(def)
    }

    /// Commit a validated process definition under its freshly allocated
    /// id.
    fn commit_process(&mut self, def: ProcessDef) -> KernelResult<ProcessId> {
        let id = def.id;
        self.commit_event(Event::DefineProcess { def })?;
        Ok(id)
    }

    /// Validate a primitive process and build its definition, allocating
    /// its id last — the external-process path rewrites the kind before
    /// committing it.
    fn primitive_process_def(&self, spec: ProcessSpec) -> KernelResult<ProcessDef> {
        let output = self.catalog.class_by_name(&spec.output)?;
        if !output.is_derived() {
            return Err(KernelError::Schema(format!(
                "process {} outputs into base class {} — base data cannot be derived",
                spec.name, output.name
            )));
        }
        let output_id = output.id;
        let mut args = Vec::new();
        for (name, class, setof, min_card) in &spec.args {
            let class_id = self.catalog.class_by_name(class)?.id;
            args.push(ProcessArg {
                name: name.clone(),
                class: class_id,
                setof: *setof,
                min_card: if *setof { *min_card } else { 1 },
            });
        }
        // Template validation.
        let declared: BTreeSet<&str> = args.iter().map(|a| a.name.as_str()).collect();
        let mut referenced = Vec::new();
        for a in &spec.template.assertions {
            a.referenced_args(&mut referenced);
        }
        for m in &spec.template.mappings {
            m.expr.referenced_args(&mut referenced);
        }
        for r in &referenced {
            if !declared.contains(r.as_str()) {
                return Err(KernelError::Schema(format!(
                    "process {}: template references undeclared argument {r:?}",
                    spec.name
                )));
            }
        }
        let out_class = self.catalog.class(output_id)?.clone();
        for m in &spec.template.mappings {
            if out_class.attr(&m.attr).is_none() {
                return Err(KernelError::Schema(format!(
                    "process {}: mapping targets unknown attribute {:?} of class {}",
                    spec.name, m.attr, out_class.name
                )));
            }
        }
        // Interaction validation (§4.3 extension): every PARAM the template
        // references must be declared; declared names must be unique; a
        // preview may only use declared arguments and *earlier* answers.
        let mut declared_params: BTreeSet<&str> = BTreeSet::new();
        for point in &spec.interactions {
            if !declared_params.insert(point.param.as_str()) {
                return Err(KernelError::Schema(format!(
                    "process {}: interaction {:?} declared twice",
                    spec.name, point.param
                )));
            }
        }
        let mut referenced_params = Vec::new();
        for a in &spec.template.assertions {
            a.referenced_params(&mut referenced_params);
        }
        for m in &spec.template.mappings {
            m.expr.referenced_params(&mut referenced_params);
        }
        for p in &referenced_params {
            if !declared_params.contains(p.as_str()) {
                return Err(KernelError::Schema(format!(
                    "process {}: template references undeclared parameter {p:?} \
                     (declare it as an interaction point)",
                    spec.name
                )));
            }
        }
        for (i, point) in spec.interactions.iter().enumerate() {
            let Some(preview) = &point.preview else {
                continue;
            };
            let mut args_used = Vec::new();
            preview.referenced_args(&mut args_used);
            for a in &args_used {
                if !declared.contains(a.as_str()) {
                    return Err(KernelError::Schema(format!(
                        "process {}: preview of {:?} references undeclared argument {a:?}",
                        spec.name, point.param
                    )));
                }
            }
            let mut params_used = Vec::new();
            preview.referenced_params(&mut params_used);
            for p in &params_used {
                let earlier = spec.interactions[..i].iter().any(|q| q.param == *p);
                if !earlier {
                    return Err(KernelError::Schema(format!(
                        "process {}: preview of {:?} uses parameter {p:?} which is \
                         not answered yet at that point",
                        spec.name, point.param
                    )));
                }
            }
        }
        self.catalog.check_fresh("process", &spec.name)?;
        Ok(ProcessDef {
            id: ProcessId(self.db.allocate_oid()),
            name: spec.name,
            output: output_id,
            args,
            template: spec.template,
            kind: ProcessKind::Primitive,
            interactions: spec.interactions,
            cost: spec.cost,
            doc: spec.doc,
        })
    }

    /// Define an external process (§5 extension): the guard assertions run
    /// locally, the mapping runs at `site`. External templates are
    /// assertions-only — the remote site computes the output attributes.
    /// The site does not need to be registered yet; registration is an
    /// environment concern, definition a catalog one.
    pub fn define_external_process(
        &mut self,
        spec: ProcessSpec,
        site: &str,
    ) -> KernelResult<ProcessId> {
        if !spec.template.mappings.is_empty() {
            return Err(KernelError::Schema(format!(
                "external process {}: mappings are computed by the site; \
                 the local template may only carry assertions",
                spec.name
            )));
        }
        if !spec.interactions.is_empty() {
            return Err(KernelError::Schema(format!(
                "external process {}: interactions are not supported remotely",
                spec.name
            )));
        }
        // Reuse the primitive validation, then rewrite the kind before
        // the definition commits.
        let mut def = self.primitive_process_def(spec)?;
        def.kind = ProcessKind::External { site: site.into() };
        self.commit_process(def)
    }

    /// Define a non-applicative process (§5 extension): the mapping "is
    /// described by experimental procedures that do not follow a well
    /// known algorithm". Its tasks can only be recorded via
    /// [`Gaea::record_manual_task`], never fired.
    pub fn define_nonapplicative_process(
        &mut self,
        name: &str,
        output: &str,
        args: &[(String, String, bool, u64)],
        procedure: &str,
        doc: &str,
    ) -> KernelResult<ProcessId> {
        let output_class = self.catalog.class_by_name(output)?;
        if !output_class.is_derived() {
            return Err(KernelError::Schema(format!(
                "process {name} outputs into base class {output} — base data cannot be derived"
            )));
        }
        let output_id = output_class.id;
        let mut arg_defs = Vec::new();
        for (aname, class, setof, min_card) in args {
            let class_id = self.catalog.class_by_name(class)?.id;
            arg_defs.push(ProcessArg {
                name: aname.clone(),
                class: class_id,
                setof: *setof,
                min_card: if *setof { *min_card } else { 1 },
            });
        }
        self.catalog.check_fresh("process", name)?;
        self.commit_process(ProcessDef {
            id: ProcessId(self.db.allocate_oid()),
            name: name.into(),
            output: output_id,
            args: arg_defs,
            template: Template::default(),
            kind: ProcessKind::NonApplicative {
                procedure: procedure.into(),
            },
            interactions: vec![],
            cost: None,
            doc: doc.into(),
        })
    }

    /// Define a compound process from named steps (§2.1.4, Figure 5).
    /// `steps` wire each child process's arguments to outer arguments or
    /// earlier step outputs; class compatibility is checked statically.
    pub fn define_compound_process(
        &mut self,
        name: &str,
        output: &str,
        args: &[(String, String, bool, u64)],
        steps: &[(String, Vec<StepSource>)],
        doc: &str,
    ) -> KernelResult<ProcessId> {
        let output_class = self.catalog.class_by_name(output)?;
        if !output_class.is_derived() {
            return Err(KernelError::Schema(format!(
                "compound {name} outputs into base class {output}"
            )));
        }
        let output_id = output_class.id;
        let mut arg_defs = Vec::new();
        for (aname, class, setof, min_card) in args {
            let class_id = self.catalog.class_by_name(class)?.id;
            arg_defs.push(ProcessArg {
                name: aname.clone(),
                class: class_id,
                setof: *setof,
                min_card: if *setof { *min_card } else { 1 },
            });
        }
        // Validate wiring and collect step output classes.
        let mut step_defs: Vec<CompoundStep> = Vec::new();
        let mut step_outputs: Vec<ClassId> = Vec::new();
        for (i, (pname, sources)) in steps.iter().enumerate() {
            let child = self.catalog.process_by_name(pname)?;
            if sources.len() != child.args.len() {
                return Err(KernelError::Schema(format!(
                    "compound {name}: step {i} wires {} source(s) into {pname} which declares {}",
                    sources.len(),
                    child.args.len()
                )));
            }
            for (arg, src) in child.args.iter().zip(sources) {
                let src_class = match src {
                    StepSource::OuterArg(k) => {
                        arg_defs
                            .get(*k)
                            .ok_or_else(|| {
                                KernelError::Schema(format!(
                                    "compound {name}: step {i} references outer arg {k}"
                                ))
                            })?
                            .class
                    }
                    StepSource::StepOutput(k) => {
                        if *k >= i {
                            return Err(KernelError::Schema(format!(
                                "compound {name}: step {i} references later/own step {k}"
                            )));
                        }
                        step_outputs[*k]
                    }
                };
                if src_class != arg.class {
                    let want = self.catalog.class(arg.class)?.name.clone();
                    let got = self.catalog.class(src_class)?.name.clone();
                    return Err(KernelError::Schema(format!(
                        "compound {name}: step {i} feeds class {got} into {pname}.{} which expects {want}",
                        arg.name
                    )));
                }
            }
            step_outputs.push(child.output);
            step_defs.push(CompoundStep {
                process: child.id,
                inputs: sources.clone(),
            });
        }
        if let Some(last) = step_outputs.last() {
            if *last != output_id {
                return Err(KernelError::Schema(format!(
                    "compound {name}: final step produces {} but the declared output is {output}",
                    self.catalog.class(*last)?.name
                )));
            }
        } else {
            return Err(KernelError::Schema(format!("compound {name} has no steps")));
        }
        self.catalog.check_fresh("process", name)?;
        self.commit_process(ProcessDef {
            id: ProcessId(self.db.allocate_oid()),
            name: name.into(),
            output: output_id,
            args: arg_defs,
            template: Template::default(),
            kind: ProcessKind::Compound(step_defs),
            interactions: vec![],
            cost: None,
            doc: doc.into(),
        })
    }
}
