// Fixture: a clean simulated-path file (never compiled; scanned as text).
use std::collections::{BTreeMap, BTreeSet};
use moca_common::units::narrow_u32;

fn good(cycle: u64) -> u32 {
    let mut m: BTreeMap<u64, u64> = BTreeMap::new();
    m.insert(cycle, 1);
    let s: BTreeSet<u64> = BTreeSet::new();
    let _ = s;
    narrow_u32(cycle)
}
