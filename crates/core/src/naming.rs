//! Memory-object naming (§III-A, Fig. 3).
//!
//! A heap object is named by the return address of the allocation call that
//! created it plus the return addresses of its calling context, up to five
//! levels (§V-A). Two objects allocated through the same `malloc` wrapper
//! from different call sites therefore get distinct names — the example of
//! Fig. 3, and exactly what the `disparity`/`tracking` workload models
//! exercise.

use moca_common::units::narrow_u32;
use moca_common::ObjectId;
use moca_workloads::AppSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Maximum calling-context depth recorded (§V-A: "five levels of return
/// addresses in our callstack").
pub const MAX_CONTEXT_DEPTH: usize = 5;

/// The unique name of a heap object.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectName {
    /// Return address of the allocation function call.
    pub alloc_site: u64,
    /// Return addresses of the callers, innermost first, truncated to
    /// [`MAX_CONTEXT_DEPTH`].
    pub context: Vec<u64>,
}

impl ObjectName {
    /// Build a name, truncating the context to the recorded depth.
    pub fn new(alloc_site: u64, context: &[u64]) -> ObjectName {
        ObjectName {
            alloc_site,
            context: context.iter().take(MAX_CONTEXT_DEPTH).copied().collect(),
        }
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.alloc_site)?;
        for c in &self.context {
            write!(f, "<{c:#x}")?;
        }
        Ok(())
    }
}

/// Interns object names to dense [`ObjectId`]s — the profiler's lookup
/// table key (§IV-A: "maintain all the objects within an application in a
/// lookup table").
#[derive(Debug, Clone, Default)]
pub struct NameRegistry {
    ids: BTreeMap<ObjectName, ObjectId>,
    names: Vec<ObjectName>,
    labels: Vec<&'static str>,
}

impl NameRegistry {
    /// Empty registry.
    pub fn new() -> NameRegistry {
        NameRegistry::default()
    }

    /// Intern a name, returning its id (existing or fresh).
    pub fn intern(&mut self, name: ObjectName, label: &'static str) -> ObjectId {
        if let Some(&id) = self.ids.get(&name) {
            return id;
        }
        let id = ObjectId(narrow_u32(self.names.len() as u64));
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.labels.push(label);
        id
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &ObjectName) -> Option<ObjectId> {
        self.ids.get(name).copied()
    }

    /// The name of an id.
    pub fn name_of(&self, id: ObjectId) -> &ObjectName {
        &self.names[id.0 as usize]
    }

    /// The source-level label of an id.
    pub fn label_of(&self, id: ObjectId) -> &'static str {
        self.labels[id.0 as usize]
    }

    /// Number of distinct objects.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Build the registry for an application: intern every object's
    /// allocation-site + context name in `spec.objects` order.
    ///
    /// The simulator tags accesses with the object's *index*; this function
    /// asserts the naming convention yields exactly one id per object (i.e.
    /// `(alloc_site, context)` pairs are unique), which is what makes the
    /// index a faithful stand-in for the name at runtime.
    pub fn for_app(spec: &AppSpec) -> NameRegistry {
        let mut reg = NameRegistry::new();
        for (i, o) in spec.objects.iter().enumerate() {
            let id = reg.intern(ObjectName::new(o.alloc_site, &o.call_stack), o.label);
            assert_eq!(
                id.0 as usize, i,
                "{}: object {} name collides with an earlier object",
                spec.name, o.label
            );
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_workloads::suite;

    #[test]
    fn same_site_different_context_distinct() {
        // The Fig. 3 scenario: one malloc wrapper, two callers.
        let mut reg = NameRegistry::new();
        let a = reg.intern(ObjectName::new(0x4004ee, &[0x400600]), "a");
        let b = reg.intern(ObjectName::new(0x4004ee, &[0x400700]), "b");
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut reg = NameRegistry::new();
        let a = reg.intern(ObjectName::new(1, &[2, 3]), "a");
        let a2 = reg.intern(ObjectName::new(1, &[2, 3]), "a");
        assert_eq!(a, a2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn context_truncated_to_five_levels() {
        let long = [1u64, 2, 3, 4, 5, 6, 7];
        let n = ObjectName::new(9, &long);
        assert_eq!(n.context.len(), MAX_CONTEXT_DEPTH);
        // Names differing only beyond level 5 collide (by design).
        let m = ObjectName::new(9, &[1, 2, 3, 4, 5, 99]);
        assert_eq!(n, m);
    }

    #[test]
    fn whole_suite_names_are_unique_per_app() {
        for app in suite() {
            let reg = NameRegistry::for_app(&app);
            assert_eq!(reg.len(), app.objects.len());
            for (i, o) in app.objects.iter().enumerate() {
                let id = reg
                    .get(&ObjectName::new(o.alloc_site, &o.call_stack))
                    .unwrap();
                assert_eq!(id.0 as usize, i);
                assert_eq!(reg.label_of(id), o.label);
            }
        }
    }

    #[test]
    fn display_renders_site_and_context() {
        let n = ObjectName::new(0x4004ee, &[0x4004d6]);
        assert_eq!(n.to_string(), "0x4004ee<0x4004d6");
    }
}
