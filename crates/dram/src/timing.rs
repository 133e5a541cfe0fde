//! Device timing presets — Table II of the paper.
//!
//! | Parameter        | DDR3  | HBM  | RLDRAM3 | LPDDR2 |
//! |------------------|-------|------|---------|--------|
//! | Burst length     | 8     | 4    | 8       | 4      |
//! | # banks          | 8     | 8    | 16      | 8      |
//! | Row buffer       | 128 B | 2 kB | 16 B    | 1 kB   |
//! | # rows           | 32 K  | 32 K | 8 K     | 8 K    |
//! | Device width     | 8     | 128  | 8       | 32     |
//! | tCK (ns)         | 1.07  | 2    | 0.93    | 1.875  |
//! | tRAS (ns)        | 35    | 33   | 6       | 42     |
//! | tRCD (ns)        | 13.75 | 15   | 2       | 15     |
//! | tRC (ns)         | 48.75 | 48   | 8       | 60     |
//! | tRFC (ns)        | 160   | 160  | 110     | 130    |
//!
//! `tCL` and `tRP` are not listed in Table II; we use the standard symmetric
//! approximation `tCL = tRP = tRCD` (true to within one cycle for all four
//! parts). `tREFI` is the JEDEC 7.8 µs.
//!
//! **Power-row reconstruction.** The source text of the paper available to us
//! has OCR-scrambled values in the two power rows (as printed they would make
//! RLDRAM3 the *cheapest* DRAM, contradicting §II-A's statement that RLDRAM
//! power is 4–5× DDR3 and §VI-A's result that Homogen-RL has the worst energy
//! efficiency). We therefore keep the printed DDR3/LPDDR2/HBM standby values
//! (256 / 6.5 / 335 mW/GB) and reconstruct RLDRAM3 from the 4–5× statement
//! (1100 mW/GB standby, 4.5 W/GB active). Activate energy per row activation
//! is taken from typical device datasheets; RLDRAM's 16 B row buffer then
//! makes its per-line activate count 4× that of the others, reproducing the
//! qualitative power ordering LPDDR2 < DDR3 < HBM < RLDRAM under load.

use crate::power::PowerCoefficients;
use moca_common::units::{narrow_u32, ns_to_cycles};
use moca_common::{Cycle, ModuleKind};
use serde::{Deserialize, Serialize};

/// Timing and architecture parameters of one memory technology.
///
/// Durations are stored in core cycles (1 cycle = 1 ns), pre-converted with
/// ceiling rounding from the nanosecond values of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceTiming {
    /// Which technology this is.
    pub kind: ModuleKind,
    /// Burst length in beats.
    pub burst_length: u32,
    /// Banks per device.
    pub banks: u32,
    /// Row-buffer (DRAM page) size in bytes.
    pub row_buffer_bytes: u64,
    /// Rows per bank.
    pub rows: u32,
    /// Device interface width in bits.
    pub device_width: u32,
    /// Clock period in picoseconds.
    pub tck_ps: u64,
    /// Parallel data lanes: independent sub-channels folded into this
    /// controller. HBM stacks expose 8 narrow channels ("more channels per
    /// device", §II-A); we model the stack as one controller whose aggregate
    /// bus moves `data_lanes` bursts concurrently. 1 for planar DRAM.
    pub data_lanes: u32,
    /// ACT-to-PRE minimum (cycles).
    pub t_ras: Cycle,
    /// ACT-to-CAS delay (cycles).
    pub t_rcd: Cycle,
    /// ACT-to-ACT same-bank cycle time (cycles).
    pub t_rc: Cycle,
    /// Refresh cycle time (cycles).
    pub t_rfc: Cycle,
    /// CAS latency (cycles); approximated as `tRCD` (see module docs).
    pub t_cl: Cycle,
    /// Precharge time (cycles); approximated as `tRCD`.
    pub t_rp: Cycle,
    /// Average refresh interval (cycles).
    pub t_refi: Cycle,
    /// Power coefficients for the energy model.
    pub power: PowerCoefficients,
}

impl DeviceTiming {
    #[allow(clippy::too_many_arguments)]
    fn build(
        kind: ModuleKind,
        burst_length: u32,
        banks: u32,
        row_buffer_bytes: u64,
        rows: u32,
        device_width: u32,
        tck_ns: f64,
        t_ras_ns: f64,
        t_rcd_ns: f64,
        t_rc_ns: f64,
        t_rfc_ns: f64,
        power: PowerCoefficients,
    ) -> DeviceTiming {
        DeviceTiming {
            kind,
            burst_length,
            banks,
            row_buffer_bytes,
            rows,
            device_width,
            tck_ps: (tck_ns * 1000.0).round() as u64,
            data_lanes: 1,
            t_ras: ns_to_cycles(t_ras_ns),
            t_rcd: ns_to_cycles(t_rcd_ns),
            t_rc: ns_to_cycles(t_rc_ns),
            t_rfc: ns_to_cycles(t_rfc_ns),
            t_cl: ns_to_cycles(t_rcd_ns),
            t_rp: ns_to_cycles(t_rcd_ns),
            t_refi: ns_to_cycles(7800.0),
            power,
        }
    }

    /// DDR3-1866 (Table II column 1) — the homogeneous baseline technology.
    pub fn ddr3() -> DeviceTiming {
        Self::build(
            ModuleKind::Ddr3,
            8,
            8,
            128,
            32 * 1024,
            8,
            1.07,
            35.0,
            13.75,
            48.75,
            160.0,
            PowerCoefficients::ddr3(),
        )
    }

    /// HBM (Table II column 2) — bandwidth-optimized stacked DRAM. A stack
    /// carries 8 independent 128-bit channels; folded into one controller
    /// this yields 4× the aggregate data bus of a DDR3 DIMM and 64 banks,
    /// while per-access latency stays DDR3-like — exactly the
    /// high-bandwidth / ordinary-latency profile of §II-A.
    pub fn hbm() -> DeviceTiming {
        let mut d = Self::build(
            ModuleKind::Hbm,
            4,
            64,
            2048,
            32 * 1024,
            128,
            2.0,
            33.0,
            15.0,
            48.0,
            160.0,
            PowerCoefficients::hbm(),
        );
        d.data_lanes = 4;
        d
    }

    /// RLDRAM3 (Table II column 3) — latency-optimized, SRAM-like DRAM.
    pub fn rldram3() -> DeviceTiming {
        Self::build(
            ModuleKind::Rldram3,
            8,
            16,
            16,
            8 * 1024,
            8,
            0.93,
            6.0,
            2.0,
            8.0,
            110.0,
            PowerCoefficients::rldram3(),
        )
    }

    /// LPDDR2-1066 (Table II column 4) — power-optimized mobile DRAM.
    pub fn lpddr2() -> DeviceTiming {
        Self::build(
            ModuleKind::Lpddr2,
            4,
            8,
            1024,
            8 * 1024,
            32,
            1.875,
            42.0,
            15.0,
            60.0,
            130.0,
            PowerCoefficients::lpddr2(),
        )
    }

    /// Preset for a given technology.
    pub fn for_kind(kind: ModuleKind) -> DeviceTiming {
        match kind {
            ModuleKind::Ddr3 => Self::ddr3(),
            ModuleKind::Hbm => Self::hbm(),
            ModuleKind::Rldram3 => Self::rldram3(),
            ModuleKind::Lpddr2 => Self::lpddr2(),
        }
    }

    /// Cycles the (aggregate) data bus is occupied to transfer one 64 B
    /// cache line: `burst_length / 2 · tCK` for double-data-rate interfaces
    /// divided by the parallel lanes, rounded up.
    ///
    /// The channel is assumed to deliver one full line per burst (e.g. DDR3:
    /// 8 beats × 64-bit DIMM bus = 64 B; HBM: 4 beats × 128-bit = 64 B per
    /// internal channel, 4 lanes concurrently).
    pub fn line_transfer_cycles(&self) -> Cycle {
        let ns = (self.burst_length as f64 / 2.0) * self.tck_ps as f64
            / 1000.0
            / self.data_lanes.max(1) as f64;
        ns_to_cycles(ns).max(1)
    }

    /// Number of sub-accesses (activates) needed to fetch one 64 B line.
    /// 1 for devices whose row buffer holds a whole line; 4 for RLDRAM3's
    /// 16 B rows.
    pub fn subaccesses_per_line(&self) -> u32 {
        narrow_u32(
            (moca_common::addr::CACHE_LINE_SIZE)
                .div_ceil(self.row_buffer_bytes)
                .max(1),
        )
    }

    /// Whether the device can ever produce open-row hits on 64 B requests.
    pub fn supports_row_hits(&self) -> bool {
        self.row_buffer_bytes >= moca_common::addr::CACHE_LINE_SIZE
    }

    /// Check the inter-parameter constraints every DRAM device must satisfy.
    /// Errors name the violated constraint so a misconfigured preset is
    /// rejected with an actionable message. Also run offline by
    /// `moca-lint check-model` against every Table II preset.
    pub fn validate(&self) -> Result<(), String> {
        let who = self.kind;
        if self.tck_ps == 0 {
            return Err(format!("{who}: tCK must be positive"));
        }
        if self.burst_length == 0
            || self.banks == 0
            || self.rows == 0
            || self.device_width == 0
            || self.row_buffer_bytes == 0
            || self.data_lanes == 0
        {
            return Err(format!(
                "{who}: architecture parameters (burst, banks, rows, width, \
                 row buffer, lanes) must all be positive"
            ));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "{who}: tRC ({}) must be >= tRAS + tRP ({} + {}): a bank \
                 cannot re-activate before the previous row is restored and \
                 precharged",
                self.t_rc, self.t_ras, self.t_rp
            ));
        }
        if self.t_ras < self.t_rcd {
            return Err(format!(
                "{who}: tRAS ({}) must be >= tRCD ({}): the row must stay \
                 open at least until the first CAS can issue",
                self.t_ras, self.t_rcd
            ));
        }
        if self.t_refi <= self.t_rfc {
            return Err(format!(
                "{who}: tREFI ({}) must be > tRFC ({}): refresh would \
                 otherwise consume the entire schedule",
                self.t_refi, self.t_rfc
            ));
        }
        // Burst capacity identity: one burst on the device interface moves
        // burst_length × device_width / 8 bytes; a 64 B line must be an
        // exact multiple of it or the transfer model miscounts bus cycles.
        let burst_bytes = self.burst_length as u64 * self.device_width as u64 / 8;
        if burst_bytes == 0 || !moca_common::addr::CACHE_LINE_SIZE.is_multiple_of(burst_bytes) {
            return Err(format!(
                "{who}: burst capacity identity violated: cache line (64 B) \
                 is not a multiple of burst_length x device_width / 8 \
                 ({burst_bytes} B)"
            ));
        }
        // Sub-line devices must stripe a line's sub-blocks across distinct
        // banks, which requires enough banks for one line.
        let subline = self.subaccesses_per_line() as u64;
        if subline > self.banks as u64 {
            return Err(format!(
                "{who}: a 64 B line needs {subline} sub-accesses but the \
                 device only has {} banks",
                self.banks
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2_cycles() {
        let d = DeviceTiming::ddr3();
        assert_eq!((d.t_ras, d.t_rcd, d.t_rc, d.t_rfc), (35, 14, 49, 160));
        let h = DeviceTiming::hbm();
        assert_eq!((h.t_ras, h.t_rcd, h.t_rc, h.t_rfc), (33, 15, 48, 160));
        let r = DeviceTiming::rldram3();
        assert_eq!((r.t_ras, r.t_rcd, r.t_rc, r.t_rfc), (6, 2, 8, 110));
        let l = DeviceTiming::lpddr2();
        assert_eq!((l.t_ras, l.t_rcd, l.t_rc, l.t_rfc), (42, 15, 60, 130));
    }

    #[test]
    fn rldram_is_fastest_closed_row() {
        // Closed-row read latency: ACT + CAS, excluding queueing and transfer.
        let lat: Vec<_> = ModuleKind::ALL
            .iter()
            .map(|&k| {
                let t = DeviceTiming::for_kind(k);
                (k, t.t_rcd + t.t_cl)
            })
            .collect();
        let rl = lat
            .iter()
            .find(|(k, _)| *k == ModuleKind::Rldram3)
            .unwrap()
            .1;
        for (k, l) in &lat {
            if *k != ModuleKind::Rldram3 {
                assert!(rl < *l, "RLDRAM should beat {k}");
            }
        }
    }

    #[test]
    fn line_transfer_is_one_line_per_burst() {
        assert_eq!(DeviceTiming::ddr3().line_transfer_cycles(), 5); // 4.28 ns
        assert_eq!(DeviceTiming::hbm().line_transfer_cycles(), 1); // 4.0 ns / 4 lanes
        assert_eq!(DeviceTiming::rldram3().line_transfer_cycles(), 4); // 3.72 ns
        assert_eq!(DeviceTiming::lpddr2().line_transfer_cycles(), 4); // 3.75 ns
    }

    #[test]
    fn rldram_needs_four_subaccesses() {
        assert_eq!(DeviceTiming::rldram3().subaccesses_per_line(), 4);
        assert_eq!(DeviceTiming::ddr3().subaccesses_per_line(), 1);
        assert!(!DeviceTiming::rldram3().supports_row_hits());
        assert!(DeviceTiming::ddr3().supports_row_hits());
    }

    #[test]
    fn all_table2_presets_validate() {
        for k in ModuleKind::ALL {
            DeviceTiming::for_kind(k)
                .validate()
                .unwrap_or_else(|e| panic!("{k} preset invalid: {e}"));
        }
    }

    #[test]
    fn perturbed_preset_is_rejected_with_named_constraint() {
        let mut d = DeviceTiming::ddr3();
        d.t_rc = d.t_ras + d.t_rp - 1;
        let err = d.validate().unwrap_err();
        assert!(err.contains("tRC"), "error must name the constraint: {err}");

        let mut d = DeviceTiming::hbm();
        d.t_ras = d.t_rcd - 1;
        // Keep tRC consistent so the first failing constraint is tRAS.
        assert!(d.validate().unwrap_err().contains("tRAS"));

        let mut d = DeviceTiming::lpddr2();
        d.t_refi = d.t_rfc;
        assert!(d.validate().unwrap_err().contains("tREFI"));

        let mut d = DeviceTiming::rldram3();
        d.device_width = 24; // 8 beats x 24 bits = 24 B: does not divide 64 B
        assert!(d.validate().unwrap_err().contains("burst"));
    }

    #[test]
    fn for_kind_roundtrips() {
        for k in ModuleKind::ALL {
            assert_eq!(DeviceTiming::for_kind(k).kind, k);
        }
    }
}
