//! The program model: the analysis IR.
//!
//! The paper's compile-time pass (Tanger/LLVM plus the data-structure
//! analysis of its reference \[6\]) consumes a points-to view of the program:
//! *allocation sites* (where transactional data is created) and *access
//! sites* (instrumented loads/stores) each annotated with the set of
//! allocation sites they may touch. This module defines that view as an
//! explicit, serializable data structure — the substitution for the LLVM
//! frontend. Everything downstream (the partitioner itself) is the paper's
//! algorithm unchanged.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;

/// Identifier of an allocation site within one model.
pub type AllocId = u32;
/// Identifier of an access site within one model.
pub type AccessId = u32;

/// What an access site does to the data it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Transactional load.
    Read,
    /// Transactional store.
    Write,
    /// Both (e.g. a read-modify-write sequence).
    ReadWrite,
}

/// A static allocation site: one place in the program where transactional
/// data is created (e.g. "the nodes of the car table's red-black tree").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Unique id within the model.
    pub id: AllocId,
    /// Human-readable name (e.g. `"car_table_nodes"`).
    pub name: String,
    /// The allocated type (used by the type-seeded strategy).
    pub type_name: String,
    /// Optional allocation context (k-CFA style call-site string). Sites
    /// that differ only in context model a context-sensitive analysis; see
    /// [`ProgramModel::collapse_contexts`]. Serialized as JSON `null` when
    /// `None`.
    pub context: Option<String>,
}

/// A static access site: one instrumented transactional load/store, with
/// the set of allocation sites the points-to analysis says it may touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Unique id within the model.
    pub id: AccessId,
    /// Enclosing function (for reports).
    pub func: String,
    /// Load / store / both.
    pub kind: AccessKind,
    /// Allocation sites this access may touch (points-to result). The
    /// partitioner's constraint: all of these must land in one partition,
    /// because the instrumented code is specialized for a single
    /// partition's metadata.
    pub may_touch: Vec<AllocId>,
}

/// A whole-program model: the input to the partitioner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramModel {
    /// Program/benchmark name.
    pub name: String,
    /// All allocation sites.
    pub alloc_sites: Vec<AllocSite>,
    /// All access sites.
    pub access_sites: Vec<AccessSite>,
}

/// Validation problems in a [`ProgramModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Two allocation sites share an id.
    DuplicateAllocId(AllocId),
    /// Two access sites share an id.
    DuplicateAccessId(AccessId),
    /// An access site references an unknown allocation site.
    UnknownAllocSite {
        /// The offending access site.
        access: AccessId,
        /// The dangling reference.
        alloc: AllocId,
    },
    /// An access site touches nothing (the frontend should have dropped it).
    EmptyMayTouch(AccessId),
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::DuplicateAllocId(id) => write!(f, "duplicate allocation-site id {id}"),
            ModelError::DuplicateAccessId(id) => write!(f, "duplicate access-site id {id}"),
            ModelError::UnknownAllocSite { access, alloc } => {
                write!(
                    f,
                    "access site {access} references unknown alloc site {alloc}"
                )
            }
            ModelError::EmptyMayTouch(id) => write!(f, "access site {id} has empty may-touch set"),
        }
    }
}

impl std::error::Error for ModelError {}

impl ProgramModel {
    /// Checks internal consistency; the partitioner requires a valid model.
    pub fn validate(&self) -> Result<(), ModelError> {
        let mut alloc_ids = BTreeSet::new();
        for a in &self.alloc_sites {
            if !alloc_ids.insert(a.id) {
                return Err(ModelError::DuplicateAllocId(a.id));
            }
        }
        let mut access_ids = BTreeSet::new();
        for s in &self.access_sites {
            if !access_ids.insert(s.id) {
                return Err(ModelError::DuplicateAccessId(s.id));
            }
            if s.may_touch.is_empty() {
                return Err(ModelError::EmptyMayTouch(s.id));
            }
            for &t in &s.may_touch {
                if !alloc_ids.contains(&t) {
                    return Err(ModelError::UnknownAllocSite {
                        access: s.id,
                        alloc: t,
                    });
                }
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON (the wire format `serde_json` would emit
    /// for these structs, so external tooling sees a stable schema).
    pub fn to_json(&self) -> String {
        let alloc_sites = self
            .alloc_sites
            .iter()
            .map(|a| {
                let mut members = vec![
                    ("id".to_owned(), Json::Num(a.id as f64)),
                    ("name".to_owned(), Json::Str(a.name.clone())),
                    ("type_name".to_owned(), Json::Str(a.type_name.clone())),
                ];
                members.push((
                    "context".to_owned(),
                    match &a.context {
                        Some(c) => Json::Str(c.clone()),
                        None => Json::Null,
                    },
                ));
                Json::Obj(members)
            })
            .collect();
        let access_sites = self
            .access_sites
            .iter()
            .map(|s| {
                let kind = match s.kind {
                    AccessKind::Read => "Read",
                    AccessKind::Write => "Write",
                    AccessKind::ReadWrite => "ReadWrite",
                };
                Json::Obj(vec![
                    ("id".to_owned(), Json::Num(s.id as f64)),
                    ("func".to_owned(), Json::Str(s.func.clone())),
                    ("kind".to_owned(), Json::Str(kind.to_owned())),
                    (
                        "may_touch".to_owned(),
                        Json::Arr(s.may_touch.iter().map(|&t| Json::Num(t as f64)).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("alloc_sites".to_owned(), Json::Arr(alloc_sites)),
            ("access_sites".to_owned(), Json::Arr(access_sites)),
        ])
        .to_string_pretty()
    }

    /// Produces the *context-insensitive* version of this model: allocation
    /// sites that differ only in `context` are merged (keeping the lowest
    /// id) and access-site may-touch sets are rewritten accordingly.
    ///
    /// Comparing partition counts before/after shows the value of the
    /// context-sensitive analysis (paper: more, finer partitions).
    pub fn collapse_contexts(&self) -> ProgramModel {
        // Group by (name, type): representative = smallest id.
        let mut group_min: BTreeMap<(String, String), AllocId> = BTreeMap::new();
        for a in &self.alloc_sites {
            let key = (a.name.clone(), a.type_name.clone());
            let e = group_min.entry(key).or_insert(a.id);
            *e = (*e).min(a.id);
        }
        let mut remap: BTreeMap<AllocId, AllocId> = BTreeMap::new();
        for a in &self.alloc_sites {
            let key = (a.name.clone(), a.type_name.clone());
            remap.insert(a.id, group_min[&key]);
        }
        let mut seen = BTreeSet::new();
        let alloc_sites = self
            .alloc_sites
            .iter()
            .filter(|a| seen.insert(remap[&a.id]) && remap[&a.id] == a.id)
            .map(|a| AllocSite {
                context: None,
                ..a.clone()
            })
            .collect();
        let access_sites = self
            .access_sites
            .iter()
            .map(|s| {
                let mut touched: Vec<AllocId> = s.may_touch.iter().map(|t| remap[t]).collect();
                touched.sort_unstable();
                touched.dedup();
                AccessSite {
                    may_touch: touched,
                    ..s.clone()
                }
            })
            .collect();
        ProgramModel {
            name: format!("{}(ctx-insensitive)", self.name),
            alloc_sites,
            access_sites,
        }
    }

    /// Looks up an allocation site by name (first match).
    pub fn alloc_by_name(&self, name: &str) -> Option<&AllocSite> {
        self.alloc_sites.iter().find(|a| a.name == name)
    }
}

/// Fluent builder for models written by hand (as the benchmark apps do for
/// their `partition_plan()`).
#[derive(Debug, Default)]
pub struct ModelBuilder {
    model: ProgramModel,
    next_alloc: AllocId,
    next_access: AccessId,
}

impl ModelBuilder {
    /// Starts a model with the given program name.
    pub fn new(name: impl Into<String>) -> Self {
        ModelBuilder {
            model: ProgramModel {
                name: name.into(),
                ..Default::default()
            },
            next_alloc: 0,
            next_access: 0,
        }
    }

    /// Adds an allocation site; returns its id.
    pub fn alloc(&mut self, name: impl Into<String>, type_name: impl Into<String>) -> AllocId {
        let id = self.next_alloc;
        self.next_alloc += 1;
        self.model.alloc_sites.push(AllocSite {
            id,
            name: name.into(),
            type_name: type_name.into(),
            context: None,
        });
        id
    }

    /// Adds a context-tagged allocation site; returns its id.
    pub fn alloc_in_context(
        &mut self,
        name: impl Into<String>,
        type_name: impl Into<String>,
        context: impl Into<String>,
    ) -> AllocId {
        let id = self.alloc(name, type_name);
        self.model.alloc_sites.last_mut().unwrap().context = Some(context.into());
        id
    }

    /// Adds an access site touching the given allocation sites.
    pub fn access(
        &mut self,
        func: impl Into<String>,
        kind: AccessKind,
        may_touch: &[AllocId],
    ) -> AccessId {
        let id = self.next_access;
        self.next_access += 1;
        self.model.access_sites.push(AccessSite {
            id,
            func: func.into(),
            kind,
            may_touch: may_touch.to_vec(),
        });
        id
    }

    /// Finishes and validates the model.
    pub fn build(self) -> Result<ProgramModel, ModelError> {
        self.model.validate()?;
        Ok(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProgramModel {
        let mut b = ModelBuilder::new("tiny");
        let a = b.alloc("list", "List");
        let c = b.alloc("tree", "Tree");
        b.access("insert", AccessKind::Write, &[a]);
        b.access("lookup", AccessKind::Read, &[c]);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let m = tiny();
        assert_eq!(m.alloc_sites[0].id, 0);
        assert_eq!(m.alloc_sites[1].id, 1);
        assert_eq!(m.access_sites[1].id, 1);
    }

    #[test]
    fn validation_catches_dangling_reference() {
        let mut m = tiny();
        m.access_sites[0].may_touch = vec![99];
        assert_eq!(
            m.validate(),
            Err(ModelError::UnknownAllocSite {
                access: 0,
                alloc: 99
            })
        );
    }

    #[test]
    fn validation_catches_duplicates_and_empties() {
        let mut m = tiny();
        m.alloc_sites[1].id = 0;
        assert_eq!(m.validate(), Err(ModelError::DuplicateAllocId(0)));

        let mut m = tiny();
        m.access_sites[0].may_touch.clear();
        assert_eq!(m.validate(), Err(ModelError::EmptyMayTouch(0)));

        let mut m = tiny();
        m.access_sites[1].id = 0;
        assert_eq!(m.validate(), Err(ModelError::DuplicateAccessId(0)));
    }

    #[test]
    fn json_roundtrip() {
        let expected = r#"{
            "name": "tiny",
            "alloc_sites": [
                {"id": 0, "name": "list", "type_name": "List", "context": null},
                {"id": 1, "name": "tree", "type_name": "Tree", "context": null}
            ],
            "access_sites": [
                {"id": 0, "func": "insert", "kind": "Write", "may_touch": [0]},
                {"id": 1, "func": "lookup", "kind": "Read", "may_touch": [1]}
            ]
        }"#;
        assert_eq!(
            Json::parse(&tiny().to_json()).unwrap(),
            Json::parse(expected).unwrap()
        );
    }

    #[test]
    fn json_context_field_roundtrips() {
        let mut b = ModelBuilder::new("ctx");
        let a = b.alloc_in_context("node", "Node", "main->f");
        b.alloc("bare", "Bare");
        b.access("f", AccessKind::ReadWrite, &[a]);
        let doc = Json::parse(&b.build().unwrap().to_json()).unwrap();
        let sites = doc.get("alloc_sites").and_then(Json::as_arr).unwrap();
        assert_eq!(sites[0].get("context"), Some(&Json::Str("main->f".into())));
        assert_eq!(sites[1].get("context"), Some(&Json::Null));
        let access = &doc.get("access_sites").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(access.get("kind").and_then(Json::as_str), Some("ReadWrite"));
    }

    #[test]
    fn collapse_contexts_merges_same_name_and_type() {
        let mut b = ModelBuilder::new("ctx");
        let a1 = b.alloc_in_context("node", "Node", "main->build_a");
        let a2 = b.alloc_in_context("node", "Node", "main->build_b");
        let c = b.alloc("other", "Other");
        b.access("fa", AccessKind::Read, &[a1]);
        b.access("fb", AccessKind::Write, &[a2]);
        b.access("fc", AccessKind::Read, &[c, a2]);
        let m = b.build().unwrap();
        let flat = m.collapse_contexts();
        assert_eq!(flat.alloc_sites.len(), 2, "two contexts merged into one");
        flat.validate().unwrap();
        // Access sites now reference the representative.
        assert_eq!(
            flat.access_sites[0].may_touch,
            flat.access_sites[1].may_touch
        );
    }

    #[test]
    fn alloc_by_name_finds_sites() {
        let m = tiny();
        assert!(m.alloc_by_name("tree").is_some());
        assert!(m.alloc_by_name("nope").is_none());
    }
}
