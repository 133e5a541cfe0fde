//! End-to-end MOCA flow (Fig. 4 / Fig. 7): profile each application on the
//! training input, classify its objects, then evaluate a workload on a
//! target memory system under MOCA or a baseline policy with the reference
//! input.

use crate::classify::{classify_lut, AppThresholds, ClassifiedApp, Thresholds};
use crate::policy::{HeterAppPolicy, HomogeneousPolicy, LowPowerFirstPolicy, MocaPolicy};
use crate::profile::{profile_app, ProfileConfig, ProfileLut};
use moca_common::{DetMap, ObjectClass};
use moca_sim::config::{MemSystemConfig, SystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::system::{AppLaunch, System};
use moca_telemetry::{Event, Telemetry};
use moca_vm::PagePlacementPolicy;
use moca_workloads::{app_by_name, InputSet};

/// Which placement policy to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Construct the placement policy for an evaluation run. One-time setup:
/// kept out of the `evaluate*` driver bodies so the hot-path lint can hold
/// those to a no-allocation rule.
fn make_policy(policy: PolicyKind, app_classes: Vec<ObjectClass>) -> Box<dyn PagePlacementPolicy> {
    match policy {
        PolicyKind::Moca => Box::new(MocaPolicy),
        PolicyKind::HeterApp => Box::new(HeterAppPolicy::new(app_classes)),
        PolicyKind::Homogeneous => Box::new(HomogeneousPolicy),
        PolicyKind::Migration => Box::new(LowPowerFirstPolicy),
    }
}

/// The profiling → classification → evaluation pipeline, with a per-app
/// profile cache (each application is profiled once on the training input,
/// like the paper's offline stage). `Clone` copies the cache, so a seeded
/// pipeline can be fanned out across threads for parallel evaluations.
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

    fn entry(&mut self, app: &str) -> &(ProfileLut, ClassifiedApp) {
        if !self.cache.contains_key(app) {
            let spec = app_by_name(app);
            let lut = profile_app(&spec, InputSet::training(), &self.profile_cfg);
            let classified = classify_lut(&lut, self.thresholds, self.app_thresholds);
            self.cache.insert(app.to_string(), (lut, classified));
        }
        &self.cache[app]
    }

    /// Evaluate a workload (one app name per core) on `mem` under `policy`,
    /// using the reference input. Returns the full metrics bundle.
    pub fn evaluate(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
    ) -> RunResult {
        self.evaluate_with_telemetry(apps, mem, policy, Telemetry::disabled())
            .0
    }

    /// [`Pipeline::evaluate`] with an observability context threaded through
    /// the run. Returns the metrics bundle together with the telemetry (its
    /// sink holds the captured events, its registry the counters/windows).
    /// Telemetry is write-only for the machine: the `RunResult` is
    /// bit-identical to what [`Pipeline::evaluate`] returns.
    pub fn evaluate_with_telemetry(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
        tel: Telemetry,
    ) -> (RunResult, Telemetry) {
        self.evaluate_attributed(apps, mem, policy, tel, false)
    }

    /// [`Pipeline::evaluate_with_telemetry`] with per-core cycle attribution
    /// switched on: the returned `RunResult` carries CPI stacks, per-object
    /// stall ledgers, and the occupancy timeline (`repro explain` consumes
    /// this). Attribution is observational, so every simulated metric is
    /// bit-identical to the unattributed run.
    pub fn evaluate_attributed(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: PolicyKind,
        tel: Telemetry,
        attribution: bool,
    ) -> (RunResult, Telemetry) {
        let sys_cfg = SystemConfig {
            cores: apps.len(),
            capacity_scale: self.profile_cfg.capacity_scale,
            ..SystemConfig::single_core(mem)
        };
        let mut launches = Vec::with_capacity(apps.len());
        let mut app_classes = Vec::with_capacity(apps.len());
        for &name in apps {
            let classified = self.classified(name).clone();
            app_classes.push(classified.app_class);
            let spec = app_by_name(name);
            let launch = match policy {
                // MOCA instruments the binary with per-object types: heap
                // virtual addresses come from the typed partitions.
                PolicyKind::Moca => AppLaunch {
                    spec,
                    input: InputSet::reference(),
                    object_classes: classified.object_classes,
                },
                // Baselines have no typed heap.
                _ => AppLaunch::untyped(spec, InputSet::reference()),
            };
            launches.push(launch);
        }
        let policy_box = make_policy(policy, app_classes);
        let mut sys = System::new_with_telemetry(sys_cfg, launches, policy_box, tel);
        if policy == PolicyKind::Migration {
            sys.attach_migration(moca_sim::migration::MigrationConfig::default());
        }
        if attribution {
            sys.enable_attribution();
        }
        let result = sys.run_warmed(self.eval_warmup, self.eval_instrs);
        (result, sys.take_telemetry())
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

impl Pipeline {
    /// Evaluate with an arbitrary placement policy. `typed_heap` selects
    /// whether object virtual addresses come from the MOCA class partitions
    /// (required for class-aware policies) or the untyped heap.
    pub fn evaluate_custom(
        &mut self,
        apps: &[&str],
        mem: MemSystemConfig,
        policy: Box<dyn PagePlacementPolicy>,
        typed_heap: bool,
    ) -> RunResult {
        let sys_cfg = SystemConfig {
            cores: apps.len(),
            capacity_scale: self.profile_cfg.capacity_scale,
            ..SystemConfig::single_core(mem)
        };
        let launches = apps
            .iter()
            .map(|&name| {
                let classified = self.classified(name).clone();
                let spec = app_by_name(name);
                if typed_heap {
                    AppLaunch {
                        spec,
                        input: InputSet::reference(),
                        object_classes: classified.object_classes,
                    }
                } else {
                    AppLaunch::untyped(spec, InputSet::reference())
                }
            })
            .collect();
        let mut sys = System::new(sys_cfg, launches, policy);
        sys.run_warmed(self.eval_warmup, self.eval_instrs)
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
