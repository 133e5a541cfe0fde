//! Physical-address decoding.
//!
//! Two mappings are used, following the paper:
//!
//! * **Homogeneous systems** use gem5's `RoRaBaChCo` interleaving (Table I):
//!   the channel bits sit directly above the cache-line offset, so
//!   consecutive lines round-robin across the four channels, and within a
//!   channel the remaining bits split into column / bank / row.
//! * **Heterogeneous systems** give each module its own physical address
//!   range with a dedicated controller (§V-C), so the channel is selected by
//!   range and only the intra-channel bits are decoded.

use crate::timing::DeviceTiming;
use moca_common::addr::{LineAddr, CACHE_LINE_SIZE};
use moca_common::units::{narrow_u32, narrow_usize};
use serde::{Deserialize, Serialize};

/// Intra-channel coordinates of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedAddr {
    /// Bank index within the device.
    pub bank: u32,
    /// Row within the bank. Rows are taken modulo the device's row count so
    /// scaled-down capacities still exercise the full row space.
    pub row: u32,
    /// Byte column within the row buffer.
    pub col: u32,
}

/// Decode a channel-local byte address into bank/row/column for `timing`.
///
/// The layout is column (row-buffer sized) → bank → row, i.e. consecutive
/// row-buffer-sized blocks stripe across banks, which maximizes bank-level
/// parallelism for streaming access — the standard open-page interleave.
/// For devices whose row buffer is smaller than a cache line (RLDRAM3), the
/// line's sub-blocks land in consecutive banks by the same formula.
pub fn decode_local(timing: &DeviceTiming, local_byte_addr: u64) -> DecodedAddr {
    let rb = timing.row_buffer_bytes.max(1);
    let col = narrow_u32(local_byte_addr % rb);
    let block = local_byte_addr / rb;
    let bank = narrow_u32(block % timing.banks as u64);
    let row = narrow_u32((block / timing.banks as u64) % timing.rows as u64);
    DecodedAddr { bank, row, col }
}

/// Maps a global physical line address to a channel and a channel-local byte
/// offset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AddressMapper {
    /// `RoRaBaChCo`: channel bits immediately above the line offset.
    Interleaved {
        /// Number of channels (power of two).
        channels: u32,
    },
    /// Range-per-channel: `bounds[i]..bounds[i+1]` (byte addresses) belongs
    /// to channel `i`. `bounds` has `channels + 1` entries, starts at 0 and
    /// is strictly increasing.
    Ranged {
        /// Exclusive upper byte bounds per channel, prefixed with 0.
        bounds: Vec<u64>,
    },
}

impl AddressMapper {
    /// Build a range mapper from per-channel capacities in bytes.
    pub fn ranged(capacities: &[u64]) -> AddressMapper {
        let mut bounds = Vec::with_capacity(capacities.len() + 1);
        bounds.push(0);
        let mut acc = 0u64;
        for &c in capacities {
            assert!(c > 0, "zero-capacity channel");
            acc += c;
            bounds.push(acc);
        }
        AddressMapper::Ranged { bounds }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        match self {
            // moca-lint: allow(narrowing-cast): channel count is u32; u32 -> usize never truncates
            AddressMapper::Interleaved { channels } => *channels as usize,
            AddressMapper::Ranged { bounds } => bounds.len() - 1,
        }
    }

    /// Total addressable bytes (`None` means unbounded interleaved space —
    /// capacity is enforced by the frame allocator, not the mapper).
    pub fn total_bytes(&self) -> Option<u64> {
        match self {
            AddressMapper::Interleaved { .. } => None,
            AddressMapper::Ranged { bounds } => Some(*bounds.last().unwrap()),
        }
    }

    /// Map a physical line address to `(channel, channel-local byte offset)`.
    pub fn map(&self, line: LineAddr) -> (usize, u64) {
        let byte = line.0 * CACHE_LINE_SIZE;
        match self {
            AddressMapper::Interleaved { channels } => {
                let ch = narrow_usize(line.0 % *channels as u64);
                let local = (line.0 / *channels as u64) * CACHE_LINE_SIZE;
                (ch, local)
            }
            AddressMapper::Ranged { bounds } => {
                // Channels are few (≤ 4 in all configurations), linear scan.
                for ch in 0..bounds.len() - 1 {
                    if byte >= bounds[ch] && byte < bounds[ch + 1] {
                        return (ch, byte - bounds[ch]);
                    }
                }
                panic!(
                    "physical address {byte:#x} outside mapped memory ({:#x})",
                    bounds.last().unwrap()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_round_robins_lines() {
        let m = AddressMapper::Interleaved { channels: 4 };
        let chans: Vec<usize> = (0..8).map(|i| m.map(LineAddr(i)).0).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Local addresses are dense per channel.
        assert_eq!(m.map(LineAddr(0)).1, 0);
        assert_eq!(m.map(LineAddr(4)).1, 64);
        assert_eq!(m.map(LineAddr(8)).1, 128);
    }

    #[test]
    fn ranged_selects_by_capacity() {
        let m = AddressMapper::ranged(&[1024, 2048, 4096]);
        assert_eq!(m.channels(), 3);
        assert_eq!(m.total_bytes(), Some(7168));
        assert_eq!(m.map(LineAddr(0)), (0, 0));
        assert_eq!(m.map(LineAddr(1024 / 64)), (1, 0));
        assert_eq!(m.map(LineAddr((1024 + 2048) / 64)), (2, 0));
        assert_eq!(m.map(LineAddr((1024 + 2048 + 64) / 64)), (2, 64));
    }

    #[test]
    #[should_panic(expected = "outside mapped memory")]
    fn ranged_rejects_out_of_range() {
        let m = AddressMapper::ranged(&[1024]);
        m.map(LineAddr(1024 / 64));
    }

    #[test]
    fn decode_stripes_banks() {
        let t = DeviceTiming::ddr3(); // 128 B rows, 8 banks
        let a = decode_local(&t, 0);
        let b = decode_local(&t, 128);
        let c = decode_local(&t, 128 * 8);
        assert_eq!(a.bank, 0);
        assert_eq!(b.bank, 1);
        assert_eq!(c.bank, 0);
        assert_eq!(c.row, a.row + 1);
    }

    #[test]
    fn decode_rldram_subline_banks_differ() {
        let t = DeviceTiming::rldram3(); // 16 B rows
        let banks: Vec<u32> = (0..4).map(|i| decode_local(&t, i * 16).bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rows_wrap_modulo_device_rows() {
        let t = DeviceTiming::rldram3();
        let big = t.row_buffer_bytes * t.banks as u64 * t.rows as u64;
        assert_eq!(decode_local(&t, big).row, 0);
    }
}
