//! End-to-end MOCA flow (Fig. 4 / Fig. 7): profile each application on the
//! training input, classify its objects, then evaluate a workload on a
//! target memory system under MOCA or a baseline policy with the reference
//! input.

use crate::classify::{classify_lut, AppThresholds, ClassifiedApp, Thresholds};
use crate::policy::{
    ConfigurableMocaPolicy, HeterAppPolicy, HomogeneousPolicy, LowPowerFirstPolicy, MocaPolicy,
};
use crate::profile::{profile_app, ProfileConfig, ProfileLut};
use moca_common::par::parallel_map;
use moca_common::{DetMap, ObjectClass};
use moca_sim::config::{MemSystemConfig, SystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::system::{AppLaunch, System};
use moca_telemetry::{Event, Telemetry};
use moca_vm::PagePlacementPolicy;
use moca_workloads::{app_by_name, InputSet};

/// Which placement policy to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// MOCA's object-level allocation (typed heap + per-class placement).
    Moca,
    /// Application-level allocation (the Heter-App baseline).
    HeterApp,
    /// First-touch (homogeneous machines; placement is irrelevant when all
    /// modules are identical).
    Homogeneous,
    /// Dynamic page migration: cold start in the low-power module, promote
    /// hot pages by runtime monitoring — the §IV-E counterpoint. Profiles
    /// are not consulted.
    Migration,
}

impl PolicyKind {
    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Moca => "MOCA",
            PolicyKind::HeterApp => "Heter-App",
            PolicyKind::Homogeneous => "Homogen",
            PolicyKind::Migration => "Heter-Migrate",
        }
    }
}

/// Where a run's pages go: one of the evaluated policies, or a MOCA variant
/// with its own fallback orders and segment class (the ablations).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Placement {
    /// An evaluated policy.
    Kind(PolicyKind),
    /// A MOCA variant on the typed heap.
    Custom(ConfigurableMocaPolicy),
}

impl From<PolicyKind> for Placement {
    fn from(kind: PolicyKind) -> Placement {
        Placement::Kind(kind)
    }
}

/// Everything one evaluation run reads, resolved by [`Pipeline::resolve`].
/// A run is a pure function of its spec, so equal specs give the same
/// [`RunResult`] and a planner can key results by the spec itself.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunSpec {
    /// Memory system.
    pub mem: MemSystemConfig,
    /// One application name per core.
    pub apps: Vec<String>,
    /// Per-app object classes for the typed heap; empty without one.
    pub object_classes: Vec<Vec<ObjectClass>>,
    /// Per-app classes for Heter-App; empty for every other placement.
    pub app_classes: Vec<ObjectClass>,
    /// Page placement.
    pub placement: Placement,
    /// Footprint/capacity scale, as its `f64` bits.
    pub capacity_scale_bits: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instrs: u64,
}

impl RunSpec {
    /// Run the spec on the reference input, threading `tel` through; with
    /// `attribution` the result carries CPI stacks, per-object stall ledgers
    /// and the occupancy timeline (`repro explain`). Both only observe: every
    /// simulated metric is bit-identical either way.
    pub fn evaluate(&self, tel: Telemetry, attribution: bool) -> (RunResult, Telemetry) {
        let cfg = SystemConfig {
            cores: self.apps.len(),
            capacity_scale: f64::from_bits(self.capacity_scale_bits),
            ..SystemConfig::single_core(self.mem)
        };
        let mut sys = System::new_with_telemetry(cfg, self.launches(), self.policy(), tel);
        if self.placement == Placement::Kind(PolicyKind::Migration) {
            sys.attach_migration(moca_sim::migration::MigrationConfig::default());
        }
        if attribution {
            sys.enable_attribution();
        }
        let result = sys.run_warmed(self.warmup, self.instrs);
        (result, sys.take_telemetry())
    }

    // One-time setup, kept out of `evaluate` so the hot-path lint can hold
    // its body to a no-allocation rule.
    fn launches(&self) -> Vec<AppLaunch> {
        let mut launches: Vec<AppLaunch> = self
            .apps
            .iter()
            .map(|name| AppLaunch::untyped(app_by_name(name), InputSet::reference()))
            .collect();
        // MOCA instruments the binary with per-object types: heap virtual
        // addresses come from the typed partitions. Baselines have none.
        for (launch, classes) in launches.iter_mut().zip(&self.object_classes) {
            launch.object_classes = classes.clone();
        }
        launches
    }

    fn policy(&self) -> Box<dyn PagePlacementPolicy> {
        match &self.placement {
            Placement::Kind(PolicyKind::Moca) => Box::new(MocaPolicy),
            Placement::Kind(PolicyKind::HeterApp) => {
                Box::new(HeterAppPolicy::new(self.app_classes.clone()))
            }
            Placement::Kind(PolicyKind::Homogeneous) => Box::new(HomogeneousPolicy),
            Placement::Kind(PolicyKind::Migration) => Box::new(LowPowerFirstPolicy),
            Placement::Custom(policy) => Box::new(policy.clone()),
        }
    }
}

/// The profiling → classification → evaluation pipeline, with a per-app
/// profile cache (each application is profiled once on the training input,
/// like the paper's offline stage). `Clone` copies the cache, so a copy can
/// re-classify the same profiles under other thresholds.
#[derive(Clone)]
pub struct Pipeline {
    /// Object-level thresholds.
    pub thresholds: Thresholds,
    /// Application-level thresholds (Heter-App / Table III).
    pub app_thresholds: AppThresholds,
    /// Profiling-run configuration.
    pub profile_cfg: ProfileConfig,
    /// Evaluation warmup instructions per core.
    pub eval_warmup: u64,
    /// Evaluation measured instructions per core.
    pub eval_instrs: u64,
    cache: DetMap<String, (ProfileLut, ClassifiedApp)>,
}

impl Pipeline {
    /// Full-length runs (used by the figure-reproduction harness).
    pub fn new() -> Pipeline {
        Pipeline {
            thresholds: Thresholds::platform_default(),
            app_thresholds: AppThresholds::default(),
            profile_cfg: ProfileConfig::default(),
            eval_warmup: 500_000,
            eval_instrs: 1_000_000,
            cache: DetMap::new(),
        }
    }

    /// Short runs for tests, examples, and quick demos.
    pub fn quick() -> Pipeline {
        Pipeline {
            profile_cfg: ProfileConfig::quick(),
            eval_warmup: 120_000,
            eval_instrs: 150_000,
            ..Pipeline::new()
        }
    }

    /// Profile + classify an application (cached). Profiling always uses the
    /// training input (§V-D).
    pub fn classified(&mut self, app: &str) -> &ClassifiedApp {
        &self.entry(app).1
    }

    /// The raw profile of an application (cached).
    pub fn profile(&mut self, app: &str) -> &ProfileLut {
        &self.entry(app).0
    }

    /// Insert an externally produced profile (e.g. from a parallel
    /// profiling sweep), classifying it with this pipeline's thresholds.
    pub fn insert_profile(&mut self, lut: ProfileLut) {
        let classified = classify_lut(&lut, self.thresholds, self.app_thresholds);
        self.cache.insert(lut.app.clone(), (lut, classified));
    }

    /// Profile every app of `apps` not yet cached, fanned out over the
    /// worker threads (`moca_common::par`).
    pub fn profile_all(&mut self, apps: &[&str]) {
        let cfg = self.profile_cfg;
        let mut missing = apps.to_vec();
        missing.retain(|a| !self.cache.contains_key(*a));
        let luts = parallel_map(&missing, |a| {
            profile_app(&app_by_name(a), InputSet::training(), &cfg)
        });
        luts.into_iter().for_each(|lut| self.insert_profile(lut));
    }

    fn entry(&mut self, app: &str) -> &(ProfileLut, ClassifiedApp) {
        if !self.cache.contains_key(app) {
            let spec = app_by_name(app);
            let lut = profile_app(&spec, InputSet::training(), &self.profile_cfg);
            let classified = classify_lut(&lut, self.thresholds, self.app_thresholds);
            self.cache.insert(app.to_string(), (lut, classified));
        }
        &self.cache[app]
    }

    /// Resolve a workload (one app name per core) on `mem` under `policy`
    /// into the spec of its run: the classes the placement reads come from
    /// this pipeline's (cached) classifications, the lengths and capacity
    /// scale from its settings. A MOCA variant equal to the paper's policy
    /// resolves to [`PolicyKind::Moca`]: both place every page alike.
    pub fn resolve(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: impl Into<Placement>,
    ) -> RunSpec {
        let placement = match policy.into() {
            Placement::Custom(c) if c == ConfigurableMocaPolicy::default() => {
                Placement::Kind(PolicyKind::Moca)
            }
            p => p,
        };
        let mut spec = RunSpec {
            mem,
            apps: apps.iter().map(|a| a.to_string()).collect(),
            object_classes: Vec::new(),
            app_classes: Vec::new(),
            placement,
            capacity_scale_bits: self.profile_cfg.capacity_scale.to_bits(),
            warmup: self.eval_warmup,
            instrs: self.eval_instrs,
        };
        for app in apps {
            let c = self.classified(app);
            match spec.placement {
                Placement::Kind(PolicyKind::HeterApp) => spec.app_classes.push(c.app_class),
                Placement::Kind(PolicyKind::Moca) | Placement::Custom(_) => {
                    spec.object_classes.push(c.object_classes.clone())
                }
                _ => {}
            }
        }
        spec
    }

    /// Evaluate a workload (one app name per core) on `mem` under `policy`,
    /// using the reference input. Returns the full metrics bundle.
    pub fn evaluate(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
    ) -> RunResult {
        self.resolve(apps, mem, policy)
            .evaluate(Telemetry::disabled(), false)
            .0
    }

    /// [`Pipeline::evaluate`] with an observability context threaded through
    /// the run (see [`RunSpec::evaluate`]).
    pub fn evaluate_with_telemetry(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
        tel: Telemetry,
    ) -> (RunResult, Telemetry) {
        self.resolve(apps, mem, policy).evaluate(tel, false)
    }

    /// [`Pipeline::evaluate_with_telemetry`] with per-core cycle attribution
    /// switched on or off (see [`RunSpec::evaluate`]).
    pub fn evaluate_attributed(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
        tel: Telemetry,
        attribution: bool,
    ) -> (RunResult, Telemetry) {
        self.resolve(apps, mem, policy).evaluate(tel, attribution)
    }

    /// Emit the offline classification verdicts of every profiled app into
    /// `tel` (cycle 0: the decisions predate the run). One app-level verdict
    /// (`object: None`) plus one verdict per memory object, in the spec's
    /// instantiation order.
    pub fn emit_classifications(&mut self, tel: &mut Telemetry) {
        let mut names: Vec<String> = self.cache.keys().cloned().collect();
        names.sort();
        for name in names {
            let classified = self.cache[&name].1.clone();
            tel.record(
                0,
                Event::ClassificationVerdict {
                    app: name.clone(),
                    object: None,
                    class: classified.app_class.letter(),
                },
            );
            for (i, class) in classified.object_classes.iter().enumerate() {
                tel.record(
                    0,
                    Event::ClassificationVerdict {
                        app: name.clone(),
                        object: Some(i as u32),
                        class: class.letter(),
                    },
                );
            }
        }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::{ModuleKind, ObjectClass};
    use moca_sim::config::HeterogeneousLayout;

    #[test]
    fn table3_app_classification_reproduced() {
        let mut p = Pipeline::quick();
        for app in moca_workloads::suite() {
            let got = p.classified(app.name).app_class;
            assert_eq!(
                got, app.expected_class,
                "{} should classify as {}",
                app.name, app.expected_class
            );
        }
    }

    #[test]
    fn gcc_owns_one_latency_object() {
        // §VI-A: MOCA promotes gcc's higher-MPKI object to RLDRAM while the
        // application as a whole is non-memory-intensive.
        let mut p = Pipeline::quick();
        let c = p.classified("gcc").clone();
        assert_eq!(c.app_class, ObjectClass::NonIntensive);
        assert_eq!(
            c.object_classes[0],
            ObjectClass::LatencySensitive,
            "symtab should be latency-sensitive"
        );
        assert!(
            c.object_classes[1..]
                .iter()
                .all(|&k| k == ObjectClass::NonIntensive),
            "remaining gcc objects stay non-intensive: {:?}",
            c.object_classes
        );
    }

    #[test]
    fn disparity_has_high_and_low_mpki_major_objects() {
        // §VI-A: two major objects, one high-L2MPKI (→ RLDRAM under MOCA)
        // and one lower (→ HBM).
        // Object 0 is SAD (instantiated first, lower MPKI), object 1 is
        // imgDisp (higher MPKI) — the §VI-A instantiation order.
        let mut p = Pipeline::quick();
        let lut = p.profile("disparity").clone();
        let c = p.classified("disparity").clone();
        assert!(lut.objects[1].mpki > 2.0 * lut.objects[0].mpki);
        assert_eq!(c.object_classes[1], ObjectClass::LatencySensitive);
        assert_eq!(c.object_classes[0], ObjectClass::BandwidthSensitive);
    }

    #[test]
    fn moca_places_objects_in_distinct_modules() {
        let mut p = Pipeline::quick();
        let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
        let r = p.evaluate(&["disparity"], heter, PolicyKind::Moca);
        let app = moca_common::AppId(0);
        // Latency pages landed on RLDRAM, bandwidth pages on HBM,
        // non-intensive pages on LPDDR2.
        assert!(
            r.placement.pages_of_class(
                app,
                Some(ObjectClass::LatencySensitive),
                ModuleKind::Rldram3
            ) > 0
        );
        assert!(
            r.placement
                .pages_of_class(app, Some(ObjectClass::BandwidthSensitive), ModuleKind::Hbm)
                > 0
        );
        assert!(
            r.placement
                .pages_of_class(app, Some(ObjectClass::NonIntensive), ModuleKind::Lpddr2)
                > 0
        );
    }

    #[test]
    fn heter_app_puts_everything_in_one_module_until_full() {
        let mut p = Pipeline::quick();
        let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
        let r = p.evaluate(&["gcc"], heter, PolicyKind::HeterApp);
        let app = moca_common::AppId(0);
        // gcc is app-classified N → every page goes to LPDDR2 (it fits).
        assert_eq!(r.placement.app_pages_on(app, ModuleKind::Rldram3), 0);
        assert_eq!(r.placement.app_pages_on(app, ModuleKind::Hbm), 0);
        assert!(r.placement.app_pages_on(app, ModuleKind::Lpddr2) > 0);
    }

    #[test]
    fn moca_promotes_gccs_hot_object_to_rldram() {
        // The §VI-A gcc anecdote, end to end.
        let mut p = Pipeline::quick();
        let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
        let r = p.evaluate(&["gcc"], heter, PolicyKind::Moca);
        let app = moca_common::AppId(0);
        assert!(
            r.placement.pages_of_class(
                app,
                Some(ObjectClass::LatencySensitive),
                ModuleKind::Rldram3
            ) > 0,
            "symtab pages should reach RLDRAM under MOCA"
        );
    }
}
