//! Per-tag tables: one slot per heap object plus one per static segment.
//!
//! The core's profiling counters and the telemetry's per-object stall
//! ledger are both kept per [`MemTag`]. Objects get dense ids from the
//! naming registry, so the heap slots are a `Vec` indexed by id, which
//! beats a hash map on the per-access hot path.

use crate::ids::{MemTag, ObjectId, Segment};
use serde::{Deserialize, Serialize, Value};

/// Counters kept per tag: zero by default, and summable.
pub trait TagCounters: Clone + Default {
    /// Add `other`'s counters into `self`.
    fn merge(&mut self, other: &Self);
}

/// Dense table of `T` indexed by heap object id, plus one slot per non-heap
/// segment.
#[derive(Debug, Clone, Default)]
pub struct TagTable<T> {
    heap: Vec<T>,
    code: T,
    data: T,
    stack: T,
}

impl<T: TagCounters> TagTable<T> {
    /// Table sized for `objects` heap objects.
    pub fn new(objects: usize) -> TagTable<T> {
        TagTable {
            heap: vec![T::default(); objects],
            ..TagTable::default()
        }
    }

    /// Mutable slot for `tag`, growing the heap table on demand.
    pub fn get_mut(&mut self, tag: MemTag) -> &mut T {
        match tag.segment {
            Segment::Heap => {
                // moca-lint: allow(panic-in-hot): MemTag::heap always pairs Heap with an object id (construction invariant)
                let id = tag.object.expect("heap tag carries an object").0 as usize;
                if id >= self.heap.len() {
                    self.heap.resize(id + 1, T::default());
                }
                &mut self.heap[id]
            }
            Segment::Code => &mut self.code,
            Segment::Data => &mut self.data,
            Segment::Stack => &mut self.stack,
        }
    }

    /// Counters of a heap object (zeros if never touched).
    pub fn object(&self, id: ObjectId) -> T {
        self.heap.get(id.0 as usize).cloned().unwrap_or_default()
    }

    /// Counters of a non-heap segment; `Heap` sums every object.
    pub fn segment(&self, seg: Segment) -> T {
        match seg {
            Segment::Code => self.code.clone(),
            Segment::Data => self.data.clone(),
            Segment::Stack => self.stack.clone(),
            Segment::Heap => {
                let mut total = T::default();
                for t in &self.heap {
                    total.merge(t);
                }
                total
            }
        }
    }

    /// Counters summed over every heap object and segment.
    pub fn total(&self) -> T {
        let mut total = self.segment(Segment::Heap);
        for t in [&self.code, &self.data, &self.stack] {
            total.merge(t);
        }
        total
    }

    /// Number of heap object slots.
    pub fn objects(&self) -> usize {
        self.heap.len()
    }

    /// Iterate `(ObjectId, counters)` over heap objects.
    pub fn iter_objects(&self) -> impl Iterator<Item = (ObjectId, &T)> + '_ {
        self.heap
            .iter()
            .enumerate()
            .map(|(i, t)| (ObjectId(i as u32), t))
    }

    /// Merge another table into this one.
    pub fn merge(&mut self, other: &TagTable<T>) {
        if other.heap.len() > self.heap.len() {
            self.heap.resize(other.heap.len(), T::default());
        }
        for (a, b) in self.heap.iter_mut().zip(other.heap.iter()) {
            a.merge(b);
        }
        self.code.merge(&other.code);
        self.data.merge(&other.data);
        self.stack.merge(&other.stack);
    }
}

// The serde shim derives only non-generic types; these write and read the
// same object a derived impl would.
impl<T: Serialize> Serialize for TagTable<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("heap".to_string(), self.heap.to_value()),
            ("code".to_string(), self.code.to_value()),
            ("data".to_string(), self.data.to_value()),
            ("stack".to_string(), self.stack.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for TagTable<T> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(TagTable {
            heap: serde::get_field(v, "TagTable", "heap")?,
            code: serde::get_field(v, "TagTable", "code")?,
            data: serde::get_field(v, "TagTable", "data")?,
            stack: serde::get_field(v, "TagTable", "stack")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One summable counter.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Count(u64);

    impl TagCounters for Count {
        fn merge(&mut self, other: &Count) {
            self.0 += other.0;
        }
    }

    impl Serialize for Count {
        fn to_value(&self) -> Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Count {
        fn from_value(v: &Value) -> Result<Count, serde::Error> {
            u64::from_value(v).map(Count)
        }
    }

    #[test]
    fn heap_segment_and_total_sum() {
        let mut t = TagTable::<Count>::new(2);
        t.get_mut(MemTag::heap(ObjectId(0))).0 = 2;
        t.get_mut(MemTag::heap(ObjectId(1))).0 = 3;
        t.get_mut(MemTag::segment(Segment::Code)).0 = 7;
        t.get_mut(MemTag::segment(Segment::Data)).0 = 11;
        t.get_mut(MemTag::segment(Segment::Stack)).0 = 13;
        assert_eq!(t.segment(Segment::Heap), Count(5));
        assert_eq!(t.total(), Count(36));
        let ids: Vec<u32> = t.iter_objects().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn serializes_as_the_derived_shape_and_round_trips() {
        let mut t = TagTable::<Count>::new(1);
        t.get_mut(MemTag::heap(ObjectId(0))).0 = 5;
        t.get_mut(MemTag::segment(Segment::Data)).0 = 6;
        let v = t.to_value();
        let keys: Vec<&str> = match &v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        };
        assert_eq!(keys, ["heap", "code", "data", "stack"]);
        let back = TagTable::<Count>::from_value(&v).expect("round trip");
        assert_eq!(back.object(ObjectId(0)), Count(5));
        assert_eq!(back.segment(Segment::Data), Count(6));
        assert!(TagTable::<Count>::from_value(&Value::Null).is_err());
    }
}
