//! Classification (§III-B, §IV-C, Fig. 5).
//!
//! Objects with `LLC MPKI > Thr_Lat` are memory-intensive; among those,
//! `ROB-head stall cycles per load miss > Thr_BW` means the misses are
//! exposed (no MLP) ⇒ latency-sensitive, otherwise they overlap ⇒
//! bandwidth-sensitive. Everything else is non-memory-intensive.
//!
//! §IV-C: thresholds are *empirically set per platform* ("Thr_Lat and
//! Thr_BW need to be customized for a given system"). The paper's gem5
//! machine used (1, 20); the calibration for this repository's simulator —
//! reproduced by [`ThresholdSearch`] — lands at (1, 10): our ROB-head stall
//! attribution begins when the load reaches the commit head, which shifts
//! the absolute stall scale down relative to gem5's.

use crate::profile::ProfileLut;
use moca_common::ObjectClass;
use serde::{Deserialize, Serialize};

/// Object-level classification thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// LLC MPKI above which an object is memory-intensive.
    pub thr_lat: f64,
    /// ROB-head stall cycles per load miss above which a memory-intensive
    /// object is latency-sensitive.
    pub thr_bw: f64,
}

impl Thresholds {
    /// Calibrated defaults for this simulator platform (§IV-C methodology).
    pub fn platform_default() -> Thresholds {
        Thresholds {
            thr_lat: 1.0,
            thr_bw: 10.0,
        }
    }

    /// The values the paper reports for its gem5 platform.
    pub fn paper_nominal() -> Thresholds {
        Thresholds {
            thr_lat: 1.0,
            thr_bw: 20.0,
        }
    }

    /// Fig. 5: classify one object from its metrics.
    pub fn classify(&self, mpki: f64, stall_per_miss: f64) -> ObjectClass {
        if mpki <= self.thr_lat {
            ObjectClass::NonIntensive
        } else if stall_per_miss > self.thr_bw {
            ObjectClass::LatencySensitive
        } else {
            ObjectClass::BandwidthSensitive
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::platform_default()
    }
}

/// Application-level thresholds used by the Heter-App baseline (Phadke &
/// Narayanasamy profile whole applications; their cut-offs sit higher than
/// the per-object ones because an application aggregates quiet objects over
/// the same instruction count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppThresholds {
    /// App-level memory-intensity threshold (LLC MPKI).
    pub thr_lat: f64,
    /// App-level MLP threshold (ROB-head stall cycles per load miss).
    pub thr_bw: f64,
}

impl Default for AppThresholds {
    fn default() -> Self {
        AppThresholds {
            thr_lat: 5.0,
            thr_bw: 10.0,
        }
    }
}

impl AppThresholds {
    /// Classify a whole application (Table III / Fig. 1).
    pub fn classify(&self, app_mpki: f64, app_stall_per_miss: f64) -> ObjectClass {
        if app_mpki <= self.thr_lat {
            ObjectClass::NonIntensive
        } else if app_stall_per_miss > self.thr_bw {
            ObjectClass::LatencySensitive
        } else {
            ObjectClass::BandwidthSensitive
        }
    }
}

/// Classification result for one application: the information MOCA
/// instruments into the binary (§III-C).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifiedApp {
    /// Application name.
    pub app: String,
    /// Per-object class, indexed by object id.
    pub object_classes: Vec<ObjectClass>,
    /// Application-level class (what Heter-App uses).
    pub app_class: ObjectClass,
    /// Thresholds used.
    pub thresholds: Thresholds,
}

impl ClassifiedApp {
    /// Count of objects in each class `(L, B, N)`.
    #[cfg(test)]
    fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for k in &self.object_classes {
            match k {
                ObjectClass::LatencySensitive => c.0 += 1,
                ObjectClass::BandwidthSensitive => c.1 += 1,
                ObjectClass::NonIntensive => c.2 += 1,
            }
        }
        c
    }
}

/// Classify every object of a profiled application (plus the app itself).
pub fn classify_lut(
    lut: &ProfileLut,
    thresholds: Thresholds,
    app_thresholds: AppThresholds,
) -> ClassifiedApp {
    ClassifiedApp {
        app: lut.app.clone(),
        object_classes: lut
            .objects
            .iter()
            .map(|o| thresholds.classify(o.mpki, o.stall_per_miss))
            .collect(),
        app_class: app_thresholds.classify(lut.app_mpki, lut.app_stall_per_miss),
        thresholds,
    }
}

/// Reproduction of the §IV-C empirical threshold search: sweep a grid of
/// `(Thr_Lat, Thr_BW)` candidates, score each by an evaluation callback
/// (typically MOCA's memory EDP on a validation workload), and return the
/// best.
#[derive(Debug, Clone)]
pub struct ThresholdSearch {
    /// Candidate `Thr_Lat` values.
    pub lat_grid: Vec<f64>,
    /// Candidate `Thr_BW` values.
    pub bw_grid: Vec<f64>,
}

impl Default for ThresholdSearch {
    fn default() -> Self {
        ThresholdSearch {
            lat_grid: vec![0.5, 1.0, 2.0, 5.0],
            bw_grid: vec![5.0, 10.0, 20.0, 40.0],
        }
    }
}

impl ThresholdSearch {
    /// Every grid point, `Thr_Lat`-major: the order [`ThresholdSearch::run`]
    /// scores them in.
    pub fn candidates(&self) -> Vec<Thresholds> {
        let row = |&thr_lat| {
            self.bw_grid
                .iter()
                .map(move |&thr_bw| Thresholds { thr_lat, thr_bw })
        };
        self.lat_grid.iter().flat_map(row).collect()
    }

    /// Run the sweep. `score` maps thresholds to a cost (lower is better,
    /// e.g. memory EDP). Returns the best thresholds and all scored points.
    pub fn run<F: FnMut(Thresholds) -> f64>(
        &self,
        mut score: F,
    ) -> (Thresholds, Vec<(Thresholds, f64)>) {
        assert!(!self.lat_grid.is_empty() && !self.bw_grid.is_empty());
        let results: Vec<(Thresholds, f64)> = self
            .candidates()
            .into_iter()
            .map(|t| (t, score(t)))
            .collect();
        let best = results
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are comparable"))
            .expect("non-empty grid")
            .0;
        (best, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_regions() {
        let t = Thresholds::platform_default();
        assert_eq!(t.classify(0.5, 100.0), ObjectClass::NonIntensive);
        assert_eq!(t.classify(30.0, 35.0), ObjectClass::LatencySensitive);
        assert_eq!(t.classify(30.0, 2.0), ObjectClass::BandwidthSensitive);
        // Boundary: at exactly Thr_Lat the object is still non-intensive.
        assert_eq!(t.classify(1.0, 50.0), ObjectClass::NonIntensive);
    }

    #[test]
    fn classification_is_monotone_in_mpki() {
        // Raising MPKI never moves an object from intensive to
        // non-intensive.
        let t = Thresholds::platform_default();
        let rank = |c: ObjectClass| matches!(c, ObjectClass::NonIntensive) as u8;
        for stall in [0.0, 5.0, 15.0, 50.0] {
            let mut last = 1u8;
            for mpki in [0.0, 0.5, 1.0, 2.0, 10.0, 100.0] {
                let r = rank(t.classify(mpki, stall));
                assert!(r <= last, "intensity not monotone");
                last = r;
            }
        }
    }

    #[test]
    fn paper_nominal_differs_from_platform() {
        assert_ne!(Thresholds::paper_nominal(), Thresholds::platform_default());
        assert_eq!(Thresholds::paper_nominal().thr_bw, 20.0);
    }

    #[test]
    fn threshold_search_finds_minimum() {
        let search = ThresholdSearch::default();
        // Synthetic score with a unique minimum at (2, 10).
        let (best, all) = search.run(|t| (t.thr_lat - 2.0).abs() + (t.thr_bw - 10.0).abs());
        assert_eq!(best.thr_lat, 2.0);
        assert_eq!(best.thr_bw, 10.0);
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn class_counts_sum() {
        let c = ClassifiedApp {
            app: "x".into(),
            object_classes: vec![
                ObjectClass::LatencySensitive,
                ObjectClass::BandwidthSensitive,
                ObjectClass::NonIntensive,
                ObjectClass::NonIntensive,
            ],
            app_class: ObjectClass::LatencySensitive,
            thresholds: Thresholds::default(),
        };
        assert_eq!(c.class_counts(), (1, 1, 2));
        assert_eq!(c.object_classes[2], ObjectClass::NonIntensive);
    }
}
