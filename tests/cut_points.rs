//! Oracle for the generator's integer cut points.
//!
//! `AppRun` draws every probability as `DetRng::hit` against a
//! `prob_cut` and every object pick as `DetRng::pick` against
//! `weight_cuts`, where the float generator compared `unit()` with the
//! probability and walked the weight table. Here the float rules are the
//! reference. For every suite app, every probability the generator draws
//! and every weight table must give the float answer on both sides of each
//! cut (draws `c - 1` and `c`), at the ends of the draw range, and on 10^5
//! seeded draws. Both rules are monotone in the draw, so agreement at every
//! boundary is agreement everywhere. No suite app is phased, so each also
//! runs with an odd-phase table that reverses its weights.

use moca_common::rng::{picked, prob_cut, weight_cuts, DetRng};
use moca_workloads::gen::STACK_STORE_FRACTION;
use moca_workloads::{suite, AppSpec, Pattern};

/// Draws per table in the seeded comparison.
const DRAWS: usize = 100_000;

/// Exclusive end of the 53-bit draws behind `DetRng::unit`.
const END: u64 = 1 << 53;

/// `DetRng::unit` of the 53-bit draw `u`.
fn unit_of(u: u64) -> f64 {
    u as f64 * (1.0 / END as f64)
}

/// The float weighted pick the cut points replace: scale the unit draw by
/// the weights' sum, then walk the table subtracting each weight, falling
/// back to the last index.
fn float_pick(unit: f64, weights: &[f64], total: f64) -> usize {
    let mut x = unit * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The draws on both sides of `cut`, and the ends of the range.
fn probes(cut: u64) -> impl Iterator<Item = u64> {
    [cut.wrapping_sub(1), cut, 0, END - 1]
        .into_iter()
        .filter(|&u| u < END)
}

/// Every probability `AppRun` draws for `app`, named.
fn probabilities(app: &AppSpec) -> Vec<(String, f64)> {
    let mut ps = vec![
        ("mem_fraction".to_string(), app.mem_fraction),
        (
            "mem_fraction + branch_fraction".to_string(),
            app.mem_fraction + app.branch_fraction,
        ),
        ("mispredict_rate".to_string(), app.mispredict_rate),
        ("stack_fraction".to_string(), app.stack_fraction),
        ("branch_jump_prob".to_string(), app.branch_jump_prob),
        ("stack store fraction".to_string(), STACK_STORE_FRACTION),
    ];
    for o in &app.objects {
        ps.push((format!("{} write_fraction", o.label), o.write_fraction));
        if let Pattern::Hot { cold_fraction, .. } = o.pattern {
            ps.push((format!("{} cold_fraction", o.label), cold_fraction));
        }
    }
    ps
}

/// The app's weight tables: its base weights and its odd-phase weights
/// (its own, or the reversed base weights when it has none).
fn weight_tables(app: &AppSpec) -> Vec<(&'static str, Vec<f64>)> {
    let base: Vec<f64> = app.objects.iter().map(|o| o.weight).collect();
    let odd = match &app.phases {
        Some(p) => p.odd_weights.clone(),
        None => base.iter().rev().copied().collect(),
    };
    vec![("base", base), ("odd phase", odd)]
}

fn check_probability(app: &str, name: &str, p: f64, seed: u64) {
    let cut = prob_cut(p);
    for u in probes(cut) {
        assert_eq!(
            u < cut,
            unit_of(u) < p,
            "{app} {name} = {p}: cut {cut} disagrees with the float compare at draw {u}"
        );
    }
    let mut float = DetRng::new(seed, 0xc075);
    let mut int = float.clone();
    for k in 0..DRAWS {
        assert_eq!(
            int.hit(cut),
            float.chance(p),
            "{app} {name} = {p}: seeded draw {k} differs"
        );
    }
}

fn check_table(app: &str, name: &str, weights: &[f64], seed: u64) {
    let total: f64 = weights.iter().sum();
    let cuts = weight_cuts(weights);
    assert_eq!(
        cuts.len() + 1,
        weights.len(),
        "{app} {name}: one cut per boundary"
    );
    assert!(
        cuts.windows(2).all(|c| c[0] <= c[1]),
        "{app} {name}: cuts descend"
    );
    for &cut in &cuts {
        for u in probes(cut) {
            assert_eq!(
                picked(&cuts, u),
                float_pick(unit_of(u), weights, total),
                "{app} {name} weights {weights:?}: cuts {cuts:?} disagree at draw {u}"
            );
        }
    }
    let mut float = DetRng::new(seed, 0x91c4);
    let mut int = float.clone();
    for k in 0..DRAWS {
        assert_eq!(
            int.pick(&cuts),
            float_pick(float.unit(), weights, total),
            "{app} {name} weights {weights:?}: seeded draw {k} differs"
        );
    }
}

#[test]
fn probability_cuts_match_float_compares_for_every_suite_app() {
    for (i, app) in suite().iter().enumerate() {
        for (j, (name, p)) in probabilities(app).into_iter().enumerate() {
            check_probability(app.name, &name, p, (i * 64 + j) as u64);
        }
    }
}

#[test]
fn weight_cuts_match_float_picks_for_every_suite_app() {
    for (i, app) in suite().iter().enumerate() {
        for (j, (name, weights)) in weight_tables(app).into_iter().enumerate() {
            check_table(app.name, name, &weights, (i * 2 + j) as u64);
        }
    }
}

/// Tables built to sit on rounding edges: weights that do not sum exactly,
/// zero weights (which own no draws), a dominant weight next to tiny ones,
/// and a single object (no cuts at all).
#[test]
fn weight_cuts_match_float_picks_on_edge_tables() {
    let tables: [&[f64]; 6] = [
        &[0.1, 0.2, 0.3, 0.4],
        &[1.0, 0.0, 1.0],
        &[0.0, 3.0, 0.0],
        &[1e-12, 1.0 - 1e-12, 1e-12],
        &[1.0 / 3.0; 7],
        &[5.0],
    ];
    for (i, weights) in tables.into_iter().enumerate() {
        check_table("edge", &format!("table {i}"), weights, 100 + i as u64);
    }
    for (i, p) in [0.0, 1e-300, 0.1, 1.0 / 3.0, 0.5, 1.0 - 1e-16, 1.0]
        .into_iter()
        .enumerate()
    {
        check_probability("edge", &format!("p {i}"), p, 200 + i as u64);
    }
}
