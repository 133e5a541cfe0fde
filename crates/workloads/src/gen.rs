//! Instruction-stream generator: turns an [`AppSpec`] + input set into the
//! dynamic instruction stream the core model consumes.

use crate::spec::{AppSpec, InputSet, Pattern};
use moca_common::addr::CACHE_LINE_SIZE;
use moca_common::ids::MemTag;
use moca_common::rng::{prob_cut, weight_cuts};
use moca_common::{DetRng, ObjectId, Segment, VirtAddr};
use moca_cpu::{Instr, InstrStream};

/// Scaled sizes of an app's objects under `footprint_scale` and `input`.
pub fn scaled_sizes(spec: &AppSpec, input: InputSet, footprint_scale: f64) -> Vec<u64> {
    spec.objects
        .iter()
        .map(|o| o.scaled_bytes(footprint_scale * input.size_scale))
        .collect()
}

/// Fraction of stack accesses that are stores.
pub const STACK_STORE_FRACTION: f64 = 0.40;

/// An object's [`Pattern`] with its per-line draw parameters resolved once
/// at construction: probabilities as [`prob_cut`]s, the hot set in lines.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// [`Pattern::Stream`] (`dependent: false`) or [`Pattern::StreamDep`].
    Stream {
        stride: u64,
        dependent: bool,
    },
    Chase,
    Random,
    Hot {
        hot_lines: u64,
        cold_cut: u64,
        chase: bool,
    },
}

impl Walk {
    fn new(pattern: Pattern, lines: u64) -> Walk {
        match pattern {
            Pattern::Stream { stride } => Walk::Stream {
                stride,
                dependent: false,
            },
            Pattern::StreamDep { stride } => Walk::Stream {
                stride,
                dependent: true,
            },
            Pattern::Chase => Walk::Chase,
            Pattern::Random => Walk::Random,
            Pattern::Hot {
                working_set,
                cold_fraction,
                chase,
            } => Walk::Hot {
                hot_lines: (working_set / CACHE_LINE_SIZE).clamp(1, lines),
                cold_cut: prob_cut(cold_fraction),
                chase,
            },
        }
    }
}

#[derive(Debug, Clone)]
struct ObjState {
    base: VirtAddr,
    lines: u64,
    chain: u16,
    walk: Walk,
    /// [`prob_cut`] of the object's store fraction.
    write_cut: u64,
    burst: u32,
    /// Stream cursor (line index within the object).
    cursor: u64,
    /// Line currently being burst-accessed.
    current_line: u64,
    /// Accesses left in the current line burst.
    burst_left: u32,
    /// Whether accesses to the current line are address-dependent.
    current_dependent: bool,
}

/// A running application instance: an infinite, deterministic
/// [`InstrStream`]. The surrounding simulator bounds the run by committed
/// instruction count (the paper fast-forwards and then runs a fixed
/// instruction budget per SimPoint).
pub struct AppRun {
    name: &'static str,
    rng: DetRng,
    // Every probability is held as its `prob_cut` and every weight table
    // as its `weight_cuts`: integer compares against one 53-bit draw that
    // reproduce the float comparisons draw for draw.
    mem_cut: u64,
    /// Cut of `mem_fraction + branch_fraction`.
    branch_cut: u64,
    mispredict_cut: u64,
    stack_cut: u64,
    stack_store_cut: u64,
    jump_cut: u64,
    code_base: u64,
    code_lines: u64,
    stack_base: VirtAddr,
    stack_lines: u64,
    objects: Vec<ObjState>,
    /// Object pick thresholds of the base weights.
    picks: Vec<u64>,
    /// Odd-phase (period, pick thresholds), when the app is phased.
    phases: Option<(u64, Vec<u64>)>,
    /// Instructions generated so far (drives phase switching).
    generated: u64,
    /// Instructions left in the current phase (countdown replaces the
    /// per-instruction division by the period).
    phase_left: u64,
    /// Whether the odd-phase weights are active.
    in_odd_phase: bool,
}

impl AppRun {
    /// Build a run. `object_bases[i]` is the virtual base address assigned
    /// to `spec.objects[i]` (by MOCA's typed-heap allocator or a baseline),
    /// `stack_base` the lowest stack address, and `stream` an RNG stream
    /// discriminator (use the core index so co-scheduled copies of one app
    /// diverge).
    pub fn new(
        spec: &AppSpec,
        input: InputSet,
        footprint_scale: f64,
        object_bases: &[VirtAddr],
        stack_base: VirtAddr,
        stream: u64,
    ) -> AppRun {
        assert_eq!(
            object_bases.len(),
            spec.objects.len(),
            "{}: one base per object required",
            spec.name
        );
        let sizes = scaled_sizes(spec, input, footprint_scale);
        let objects: Vec<ObjState> = spec
            .objects
            .iter()
            .zip(sizes.iter())
            .zip(object_bases.iter())
            .enumerate()
            .map(|(idx, ((o, &bytes), &base))| {
                let lines = (bytes / CACHE_LINE_SIZE).max(1);
                ObjState {
                    base,
                    lines,
                    chain: o
                        .chain_group
                        .map(|g| 0x100 + g as u16)
                        .unwrap_or(idx as u16),
                    walk: Walk::new(o.pattern, lines),
                    write_cut: prob_cut(o.write_fraction),
                    burst: o.burst,
                    cursor: 0,
                    current_line: 0,
                    burst_left: 0,
                    current_dependent: o.pattern.dependent(),
                }
            })
            .collect();
        let weights: Vec<f64> = spec.objects.iter().map(|o| o.weight).collect();
        let phases = spec
            .phases
            .as_ref()
            .map(|p| (p.period, weight_cuts(&p.odd_weights)));
        let phase_left = phases.as_ref().map_or(0, |(period, ..)| *period);
        AppRun {
            name: spec.name,
            rng: DetRng::new(input.seed ^ fxhash(spec.name), stream),
            mem_cut: prob_cut(spec.mem_fraction),
            branch_cut: prob_cut(spec.mem_fraction + spec.branch_fraction),
            mispredict_cut: prob_cut(spec.mispredict_rate),
            stack_cut: prob_cut(spec.stack_fraction),
            stack_store_cut: prob_cut(STACK_STORE_FRACTION),
            jump_cut: prob_cut(spec.branch_jump_prob),
            code_base: moca_vm::layout::CODE_BASE,
            code_lines: (spec.code_bytes / CACHE_LINE_SIZE).max(1),
            stack_base,
            stack_lines: (spec.stack_working_set / CACHE_LINE_SIZE).max(1),
            objects,
            picks: weight_cuts(&weights),
            phases,
            generated: 0,
            phase_left,
            in_odd_phase: false,
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn heap_access(&mut self) -> Instr {
        let picks = match (&self.phases, self.in_odd_phase) {
            (Some((_, odd)), true) => odd,
            _ => &self.picks,
        };
        let i = self.rng.pick(picks);
        let o = &mut self.objects[i];
        let first_of_line = o.burst_left == 0;
        if first_of_line {
            let (line, dependent) = match o.walk {
                Walk::Stream { stride, dependent } => {
                    let l = o.cursor;
                    o.cursor = (o.cursor + stride.max(1)) % o.lines;
                    if o.cursor < stride {
                        // Phase-shift each wrap so strided sweeps cover
                        // every line across passes regardless of gcd.
                        o.cursor = (o.cursor + 1) % o.lines;
                    }
                    (l, dependent)
                }
                Walk::Chase => (self.rng.below(o.lines), true),
                Walk::Random => (self.rng.below(o.lines), false),
                Walk::Hot {
                    hot_lines,
                    cold_cut,
                    chase,
                } => {
                    if cold_cut > 0 && self.rng.hit(cold_cut) {
                        (self.rng.below(o.lines), chase)
                    } else {
                        (self.rng.below(hot_lines), false)
                    }
                }
            };
            o.current_line = line;
            o.current_dependent = dependent;
            o.burst_left = o.burst;
        }
        o.burst_left -= 1;
        let offset = o.current_line * CACHE_LINE_SIZE + self.rng.below(8) * 8;
        let va = o.base.offset(offset);
        let tag = MemTag::heap(ObjectId(i as u32));
        let write_cut = o.write_cut;
        let dependent = o.current_dependent;
        let chain = o.chain;
        if self.rng.hit(write_cut) {
            Instr::Store { va, tag }
        } else {
            Instr::Load {
                va,
                tag,
                dependent,
                chain,
            }
        }
    }

    fn stack_access(&mut self) -> Instr {
        let line = self.rng.below(self.stack_lines);
        let va = self
            .stack_base
            .offset(line * CACHE_LINE_SIZE + self.rng.below(8) * 8);
        let tag = MemTag::segment(Segment::Stack);
        if self.rng.hit(self.stack_store_cut) {
            Instr::Store { va, tag }
        } else {
            Instr::Load {
                va,
                tag,
                dependent: false,
                chain: u16::MAX,
            }
        }
    }
}

impl InstrStream for AppRun {
    fn next_instr(&mut self) -> Option<Instr> {
        self.generated += 1;
        if let Some((period, _)) = &self.phases {
            // Countdown equivalent of `(generated / period) % 2 == 1`.
            self.phase_left -= 1;
            if self.phase_left == 0 {
                self.in_odd_phase = !self.in_odd_phase;
                self.phase_left = *period;
            }
        }
        let r = self.rng.draw53();
        Some(if r < self.mem_cut {
            if self.rng.hit(self.stack_cut) {
                self.stack_access()
            } else {
                self.heap_access()
            }
        } else if r < self.branch_cut {
            let mispredict = self.rng.hit(self.mispredict_cut);
            let target = if self.rng.hit(self.jump_cut) {
                Some(VirtAddr(
                    self.code_base + self.rng.below(self.code_lines) * CACHE_LINE_SIZE,
                ))
            } else {
                None
            };
            Instr::Branch { mispredict, target }
        } else {
            Instr::Compute
        })
    }
}

/// Tiny FNV-style hash for stable per-app seed separation.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DEFAULT_FOOTPRINT_SCALE;
    use crate::suite::app_by_name;
    use moca_common::MB;

    fn mk(name: &str, seed_variant: InputSet, stream: u64) -> (AppRun, Vec<u64>) {
        let spec = app_by_name(name);
        let sizes = scaled_sizes(&spec, seed_variant, DEFAULT_FOOTPRINT_SCALE);
        // Lay objects out back to back from an arbitrary heap base.
        let mut bases = Vec::new();
        let mut cur = 0x2000_0000u64;
        for &s in &sizes {
            bases.push(VirtAddr(cur));
            cur += s;
        }
        (
            AppRun::new(
                &spec,
                seed_variant,
                DEFAULT_FOOTPRINT_SCALE,
                &bases,
                VirtAddr(0x7000_0000),
                stream,
            ),
            sizes,
        )
    }

    #[test]
    fn deterministic_across_instances() {
        let (mut a, _) = mk("mcf", InputSet::reference(), 0);
        let (mut b, _) = mk("mcf", InputSet::reference(), 0);
        for _ in 0..10_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_inputs_differ() {
        let (mut a, _) = mk("mcf", InputSet::training(), 0);
        let (mut b, _) = mk("mcf", InputSet::reference(), 0);
        let same = (0..1000)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 990, "training and reference should diverge");
    }

    #[test]
    fn different_streams_differ() {
        let (mut a, _) = mk("lbm", InputSet::reference(), 0);
        let (mut b, _) = mk("lbm", InputSet::reference(), 1);
        let same = (0..1000)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 990);
    }

    #[test]
    fn heap_addresses_stay_in_bounds() {
        let (mut run, sizes) = mk("milc", InputSet::reference(), 0);
        let spec = app_by_name("milc");
        let mut bases = Vec::new();
        let mut cur = 0x2000_0000u64;
        for &s in &sizes {
            bases.push(cur);
            cur += s;
        }
        for _ in 0..200_000 {
            if let Some(Instr::Load { va, tag, .. } | Instr::Store { va, tag }) = run.next_instr() {
                if let Some(id) = tag.object {
                    let i = id.0 as usize;
                    assert!(i < spec.objects.len());
                    assert!(
                        va.0 >= bases[i] && va.0 < bases[i] + sizes[i],
                        "object {i} access {va:x} outside [{:x}, {:x})",
                        bases[i],
                        bases[i] + sizes[i]
                    );
                }
            }
        }
    }

    #[test]
    fn mix_matches_fractions() {
        let (mut run, _) = mk("lbm", InputSet::reference(), 0);
        let spec = app_by_name("lbm");
        let n = 200_000;
        let mut mem = 0;
        let mut br = 0;
        for _ in 0..n {
            match run.next_instr().unwrap() {
                Instr::Load { .. } | Instr::Store { .. } => mem += 1,
                Instr::Branch { .. } => br += 1,
                Instr::Compute => {}
            }
        }
        let memf = mem as f64 / n as f64;
        let brf = br as f64 / n as f64;
        assert!((memf - spec.mem_fraction).abs() < 0.01, "mem {memf}");
        assert!((brf - spec.branch_fraction).abs() < 0.01, "branch {brf}");
    }

    #[test]
    fn chase_objects_emit_dependent_loads() {
        let (mut run, _) = mk("mcf", InputSet::reference(), 0);
        let spec = app_by_name("mcf");
        let chase_idx = spec
            .objects
            .iter()
            .position(|o| matches!(o.pattern, Pattern::Chase))
            .unwrap() as u32;
        let mut saw_dep = false;
        let mut saw_hot_independent = false;
        for _ in 0..100_000 {
            if let Some(Instr::Load { tag, dependent, .. }) = run.next_instr() {
                match tag.object {
                    Some(ObjectId(i)) if i == chase_idx => {
                        assert!(dependent, "chase load must be dependent");
                        saw_dep = true;
                    }
                    Some(ObjectId(i))
                        if matches!(spec.objects[i as usize].pattern, Pattern::Hot { .. }) =>
                    {
                        assert!(!dependent);
                        saw_hot_independent = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_dep && saw_hot_independent);
    }

    #[test]
    fn stream_objects_advance_sequentially() {
        let spec = app_by_name("lbm");
        let sizes = scaled_sizes(&spec, InputSet::reference(), DEFAULT_FOOTPRINT_SCALE);
        let mut bases = Vec::new();
        let mut cur = 0x2000_0000u64;
        for &s in &sizes {
            bases.push(VirtAddr(cur));
            cur += s;
        }
        let mut run = AppRun::new(
            &spec,
            InputSet::reference(),
            DEFAULT_FOOTPRINT_SCALE,
            &bases,
            VirtAddr(0x7000_0000),
            0,
        );
        // Collect the line sequence of srcGrid (object 0) and check it is
        // non-decreasing between wraps.
        let mut last_line: Option<u64> = None;
        let mut checked = 0;
        for _ in 0..100_000 {
            if let Some(Instr::Load { va, tag, .. } | Instr::Store { va, tag }) = run.next_instr() {
                if tag.object == Some(ObjectId(0)) {
                    let line = (va.0 - bases[0].0) / 64;
                    if let Some(prev) = last_line {
                        assert!(
                            line >= prev || line == 0,
                            "stream went backwards: {prev} -> {line}"
                        );
                    }
                    last_line = Some(line);
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000);
    }

    #[test]
    fn phased_app_shifts_object_mix() {
        use crate::spec::PhaseSpec;
        let mut spec = app_by_name("lbm");
        // Odd phases hammer `flags` (object 2) instead of the grids.
        spec.phases = Some(PhaseSpec {
            period: 10_000,
            odd_weights: vec![0.05, 0.05, 0.90],
        });
        spec.validate();
        let sizes = scaled_sizes(&spec, InputSet::reference(), DEFAULT_FOOTPRINT_SCALE);
        let mut bases = Vec::new();
        let mut cur = 0x2000_0000u64;
        for &s in &sizes {
            bases.push(VirtAddr(cur));
            cur += s;
        }
        let mut run = AppRun::new(
            &spec,
            InputSet::reference(),
            DEFAULT_FOOTPRINT_SCALE,
            &bases,
            VirtAddr(0x7000_0000),
            0,
        );
        // Count flags accesses in the first (even) vs second (odd) phase.
        let mut counts = [0u64; 2];
        let mut totals = [0u64; 2];
        for i in 0..20_000u64 {
            let phase = (i / 10_000) as usize;
            if let Some(Instr::Load { tag, .. } | Instr::Store { tag, .. }) = run.next_instr() {
                if tag.object.is_some() {
                    totals[phase] += 1;
                    if tag.object == Some(ObjectId(2)) {
                        counts[phase] += 1;
                    }
                }
            }
        }
        let even_share = counts[0] as f64 / totals[0] as f64;
        let odd_share = counts[1] as f64 / totals[1] as f64;
        assert!(even_share < 0.3, "even phase flags share {even_share}");
        assert!(odd_share > 0.7, "odd phase flags share {odd_share}");
    }

    #[test]
    fn unphased_apps_are_stationary() {
        let spec = app_by_name("lbm");
        assert!(spec.phases.is_none());
    }

    #[test]
    fn scaled_sizes_respect_scale() {
        let spec = app_by_name("mcf");
        let full = scaled_sizes(&spec, InputSet::reference(), 1.0);
        let scaled = scaled_sizes(&spec, InputSet::reference(), DEFAULT_FOOTPRINT_SCALE);
        assert_eq!(full[0], 280 * MB);
        assert!((scaled[0] as f64 - 280.0 * MB as f64 / 64.0).abs() < 128.0);
    }
}
