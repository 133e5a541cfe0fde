//! Workload specification types.

use moca_common::{ObjectClass, KB};
use serde::{Deserialize, Serialize};

/// Memory access pattern of one heap object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Sequential independent accesses (vector streaming): new cache lines
    /// are touched in order (optionally strided, as in multi-field
    /// scientific sweeps) and loads carry no address dependencies — high
    /// MLP, high MPKI for large objects ⇒ *bandwidth-sensitive*.
    Stream {
        /// Lines advanced per touched line (1 = dense sweep). Strides > 1
        /// spread the sweep over proportionally more pages per interval
        /// without changing the miss rate.
        stride: u64,
    },
    /// Sequential but address-dependent accesses (linked traversal in
    /// allocation order, induction-limited loops): misses cannot overlap ⇒
    /// *latency-sensitive* despite the regular address pattern.
    StreamDep {
        /// Lines advanced per touched line.
        stride: u64,
    },
    /// Uniform-random dependent accesses (pointer chasing): every new line
    /// needs the previous load's data ⇒ the canonical latency-sensitive
    /// pattern (mcf's arc traversal).
    Chase,
    /// Uniform-random independent accesses (hash/bucket lookups with
    /// precomputed indices): high MPKI but misses overlap ⇒
    /// bandwidth-sensitive.
    Random,
    /// Accesses concentrated in a small hot working set, with an optional
    /// cold tail: with probability `cold_fraction` a new line is drawn from
    /// the whole object (a compulsory miss), otherwise from the hot set,
    /// which the caches absorb ⇒ non-memory-intensive for small
    /// `cold_fraction`. `chase` makes the cold accesses address-dependent
    /// (hash-chain / symbol-table walks), which is what lets an otherwise
    /// quiet application own one latency-sensitive object — the gcc story of
    /// §VI-A.
    Hot {
        /// Hot working-set bytes (not scaled — locality is relative to the
        /// fixed cache sizes).
        working_set: u64,
        /// Probability that a new line comes from the cold tail.
        cold_fraction: f64,
        /// Whether cold accesses are address-dependent.
        chase: bool,
    },
}

impl Pattern {
    /// A dense (stride-1) streaming pattern.
    pub fn stream() -> Pattern {
        Pattern::Stream { stride: 1 }
    }

    /// A pure hot-set pattern with no cold tail.
    pub fn hot(working_set: u64) -> Pattern {
        Pattern::Hot {
            working_set,
            cold_fraction: 0.0,
            chase: false,
        }
    }

    /// Whether the first access to each new *hot/streamed* line is
    /// address-dependent on the previous load ([`Pattern::Hot`] decides per
    /// line; see the generator).
    pub fn dependent(self) -> bool {
        matches!(self, Pattern::StreamDep { .. } | Pattern::Chase)
    }
}

/// One named heap object of an application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// Source-level name (for reports; mirrors the paper's Fig. 2 labels).
    pub label: &'static str,
    /// Synthetic return address of the allocation call — the first naming
    /// component of §III-A.
    pub alloc_site: u64,
    /// Synthetic return addresses of the calling context (up to five levels,
    /// §V-A), outermost last.
    pub call_stack: Vec<u64>,
    /// Size at the paper's nominal (2 GB-machine) scale, in bytes.
    pub nominal_bytes: u64,
    /// Relative share of the application's heap accesses.
    pub weight: f64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Fraction of this object's accesses that are stores.
    pub write_fraction: f64,
    /// Accesses issued per touched cache line (spatial locality within a
    /// line: struct fields, consecutive words). Divides the object's MPKI.
    pub burst: u32,
    /// Dependence-chain group: objects sharing a group form *one* chain
    /// (mcf traverses arcs→nodes→arcs in a single dependence chain).
    /// `None` gives the object its own chain.
    pub chain_group: Option<u8>,
}

impl ObjectSpec {
    /// Object size after applying the system footprint scale and the input
    /// size scale, clamped to at least one page.
    pub fn scaled_bytes(&self, scale: f64) -> u64 {
        let b = (self.nominal_bytes as f64 * scale) as u64;
        b.max(4 * KB).div_ceil(64) * 64
    }
}

/// Program phase behaviour: real applications shift their object access
/// mix over time (the reason the paper profiles at SimPoints and takes "a
/// weighted value of metrics", §V-A). When present, the generator
/// alternates between the base object weights and `odd_weights` every
/// `period` instructions; the profiler's aggregate then reflects the
/// instruction-weighted mixture, exactly like the SimPoint weighting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Instructions per phase.
    pub period: u64,
    /// Object weights during odd phases (same length as `objects`).
    pub odd_weights: Vec<f64>,
}

/// One application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Table III application-level class (ground truth the app-level
    /// classifier should reproduce).
    pub expected_class: ObjectClass,
    /// Fraction of instructions that are memory accesses.
    pub mem_fraction: f64,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Probability a branch mispredicts.
    pub mispredict_rate: f64,
    /// Fraction of memory accesses that target the stack.
    pub stack_fraction: f64,
    /// Stack hot working-set bytes.
    pub stack_working_set: u64,
    /// Code footprint in bytes (drives L1I/L2 code-segment MPKI, Fig. 16).
    pub code_bytes: u64,
    /// Probability a branch jumps to a random code line (vs falling
    /// through), spreading fetches over the code footprint.
    pub branch_jump_prob: f64,
    /// The heap objects.
    pub objects: Vec<ObjectSpec>,
    /// Optional phase behaviour (None = stationary mix).
    pub phases: Option<PhaseSpec>,
}

impl AppSpec {
    /// Total nominal heap footprint in bytes.
    #[cfg(test)]
    pub(crate) fn nominal_footprint(&self) -> u64 {
        self.objects.iter().map(|o| o.nominal_bytes).sum()
    }

    /// Validate invariants (weights positive, fractions in range). Called by
    /// the suite tests.
    pub fn validate(&self) {
        assert!(!self.objects.is_empty(), "{}: no objects", self.name);
        if let Some(p) = &self.phases {
            assert!(p.period > 0, "{}: zero phase period", self.name);
            assert_eq!(
                p.odd_weights.len(),
                self.objects.len(),
                "{}: one odd-phase weight per object",
                self.name
            );
            assert!(
                p.odd_weights.iter().sum::<f64>() > 0.0,
                "{}: odd-phase weights sum to zero",
                self.name
            );
        }
        assert!(
            self.mem_fraction > 0.0 && self.mem_fraction < 1.0,
            "{}: mem_fraction",
            self.name
        );
        assert!(
            self.mem_fraction + self.branch_fraction < 1.0,
            "{}: fractions exceed 1",
            self.name
        );
        let wsum: f64 = self.objects.iter().map(|o| o.weight).sum();
        assert!(wsum > 0.0, "{}: zero weights", self.name);
        for o in &self.objects {
            assert!(
                o.weight >= 0.0,
                "{}/{}: negative weight",
                self.name,
                o.label
            );
            assert!(
                o.burst >= 1,
                "{}/{}: burst must be >= 1",
                self.name,
                o.label
            );
            assert!(
                (0.0..=1.0).contains(&o.write_fraction),
                "{}/{}: write fraction",
                self.name,
                o.label
            );
            assert!(
                o.call_stack.len() <= 5,
                "{}/{}: call stack deeper than the 5 levels profiled",
                self.name,
                o.label
            );
        }
    }
}

/// A profiling or evaluation input (§V-D: SPEC train/ref input sets, two
/// different MIT-Adobe images for SDVBS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InputSet {
    /// Label for reports.
    pub label: &'static str,
    /// Seed driving every random choice of the generator.
    pub seed: u64,
    /// Multiplier on object footprints relative to nominal.
    pub size_scale: f64,
}

impl InputSet {
    /// Training input: used for offline profiling and classification.
    pub fn training() -> InputSet {
        InputSet {
            label: "train",
            seed: 0x7121_1015,
            size_scale: 0.75,
        }
    }

    /// Reference input: used for the evaluation runs.
    pub fn reference() -> InputSet {
        InputSet {
            label: "ref",
            seed: 0x0EF5_EED5,
            size_scale: 1.0,
        }
    }
}

/// Default footprint scale: the simulator shrinks the 2 GB machine and all
/// object footprints by this factor to keep runs laptop-scale while
/// preserving every footprint:capacity ratio (see DESIGN.md).
pub const DEFAULT_FOOTPRINT_SCALE: f64 = 1.0 / 64.0;

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::MB;

    #[test]
    fn pattern_dependence_flags() {
        assert!(Pattern::Chase.dependent());
        assert!(Pattern::StreamDep { stride: 1 }.dependent());
        assert!(!Pattern::stream().dependent());
        assert!(!Pattern::Random.dependent());
        assert!(!Pattern::hot(1024).dependent());
    }

    #[test]
    fn scaled_bytes_clamps_to_page() {
        let o = ObjectSpec {
            label: "x",
            alloc_site: 1,
            call_stack: vec![],
            nominal_bytes: 100 * MB,
            weight: 1.0,
            pattern: Pattern::stream(),
            write_fraction: 0.0,
            burst: 1,
            chain_group: None,
        };
        assert_eq!(o.scaled_bytes(1.0), 100 * MB);
        assert_eq!(o.scaled_bytes(1e-9), 4 * KB);
        assert_eq!(o.scaled_bytes(0.5) % 64, 0);
    }

    #[test]
    fn inputs_differ() {
        let t = InputSet::training();
        let r = InputSet::reference();
        assert_ne!(t.seed, r.seed);
        assert!(t.size_scale < r.size_scale);
    }
}
