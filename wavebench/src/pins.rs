//! Output digests pinned for named seeds at full scale (`pins.json`).
//!
//! Every run checks its outputs against references it computes itself;
//! these pins additionally tie the outputs of the canonical seed and the
//! confirmation seed to fixed values, so a change that alters what the
//! program computes fails the benchmark even when it is self-consistent.

use tracefmt::json::Json;

use crate::Scale;

const PINS: &str = include_str!("../pins.json");

/// The pinned value of `key` for `workload` at `seed`, if one exists.
pub fn pinned(scale: Scale, workload: &str, seed: u64, key: &str) -> Option<u64> {
    if scale != Scale::Full {
        return None;
    }
    let doc = Json::parse(PINS).expect("pins.json is valid JSON");
    let hex = doc
        .get(workload)?
        .get(&seed.to_string())?
        .get(key)?
        .as_str()?;
    Some(
        u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .expect("pins.json values are 0x-prefixed hex"),
    )
}
