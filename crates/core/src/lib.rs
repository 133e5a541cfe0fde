//! # MOCA — Memory Object Classification and Allocation
//!
//! Reproduction of *MOCA: Memory Object Classification and Allocation in
//! Heterogeneous Memory Systems* (Narayan, Zhang, Aga, Narayanasamy,
//! Coskun — IPDPS 2018), built on the workspace's simulation substrates.
//!
//! The framework has the paper's three stages (Fig. 4):
//!
//! 1. **Naming + profiling** ([`naming`], [`profile`]) — every heap object
//!    is uniquely named by its allocation-site return address plus up to
//!    five levels of calling context (§III-A, Fig. 3); an offline profiling
//!    run on the baseline platform collects each object's LLC MPKI and
//!    ROB-head stall cycles per load miss into a lookup table (§IV-A/B).
//! 2. **Classification** ([`classify`]) — objects are split into
//!    latency-sensitive / bandwidth-sensitive / non-memory-intensive by the
//!    `(Thr_Lat, Thr_BW)` thresholds of Fig. 5. Thresholds are
//!    platform-specific (§IV-C); [`classify::ThresholdSearch`] reproduces
//!    the empirical search that derives them.
//! 3. **Runtime allocation** ([`policy`]) — the typed virtual heap (Fig. 6)
//!    plus the [`policy::MocaPolicy`] page-placement policy allocate each
//!    object's pages from its best-fit module, falling back down the
//!    priority list when a module fills (§IV-D).
//!
//! The comparison points of the evaluation are here too:
//! [`policy::HeterAppPolicy`] (application-level allocation, Phadke &
//! Narayanasamy DATE'11) and the homogeneous baselines. [`pipeline`] wires
//! everything into the paper's end-to-end flow: profile on the training
//! input, classify, then evaluate on the reference input.
//!
//! ```no_run
//! use moca::pipeline::{Pipeline, PolicyKind};
//! use moca_sim::config::{MemSystemConfig, HeterogeneousLayout};
//!
//! let mut pipeline = Pipeline::quick();
//! let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
//! let result = pipeline.evaluate(&["mcf"], heter, PolicyKind::Moca);
//! println!("memory EDP: {:.3e} J·s", result.mem.edp());
//! ```

pub mod classify;
pub mod naming;
pub mod pipeline;
pub mod policy;
pub mod profile;

pub use classify::{AppThresholds, ClassifiedApp, Thresholds};
pub use naming::{NameRegistry, ObjectName};
pub use pipeline::{Pipeline, Placement, PolicyKind, RunSpec};
pub use policy::{
    ConfigurableMocaPolicy, HeterAppPolicy, HomogeneousPolicy, LowPowerFirstPolicy, MocaPolicy,
};
pub use profile::{ObjectProfile, ProfileLut};
