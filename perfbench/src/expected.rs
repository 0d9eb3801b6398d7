//! The committed expected outputs (`expected.json`): one entry per
//! workload and pool seed. `perfbench --bless` regenerates the file.

use std::path::PathBuf;

use bicord_sweep::json::{self, Json};

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

/// The parsed expected-values document.
pub struct Expected(Json);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let p = path();
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        json::parse(&text)
            .map(Expected)
            .map_err(|e| format!("parsing {}: {e}", p.display()))
    }

    /// The entry of `workload` for simulation seed `seed`.
    pub fn entry(&self, workload: &str, seed: u64) -> Result<&Json, String> {
        self.0
            .get(workload)
            .and_then(|w| w.get(&seed.to_string()))
            .ok_or_else(|| format!("expected.json has no {workload} entry for seed {seed}"))
    }

    pub fn str(&self, workload: &str, seed: u64, field: Option<&str>) -> Result<&str, String> {
        let entry = self.entry(workload, seed)?;
        let value = match field {
            Some(f) => entry.get(f),
            None => Some(entry),
        };
        value
            .and_then(Json::as_str)
            .ok_or_else(|| format!("expected.json {workload}/{seed}: missing string {field:?}"))
    }

    pub fn u64(&self, workload: &str, seed: u64, field: &str) -> Result<u64, String> {
        self.entry(workload, seed)?
            .get(field)
            .and_then(Json::as_i64)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("expected.json {workload}/{seed}: missing count {field:?}"))
    }

    /// A `{"name": count}` object as ordered pairs.
    pub fn counts(
        &self,
        workload: &str,
        seed: u64,
        field: &str,
    ) -> Result<Vec<(String, u64)>, String> {
        let object = self
            .entry(workload, seed)?
            .get(field)
            .and_then(Json::as_object)
            .ok_or_else(|| format!("expected.json {workload}/{seed}: missing object {field:?}"))?;
        object
            .iter()
            .map(|(k, v)| {
                v.as_i64()
                    .and_then(|n| u64::try_from(n).ok())
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| {
                        format!("expected.json {workload}/{seed}/{field}/{k}: not a count")
                    })
            })
            .collect()
    }
}

/// Fails with a readable message when an output differs from its
/// expected value.
pub fn check<T: PartialEq + std::fmt::Debug>(
    what: &str,
    seed: u64,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} for seed {seed}: got {got:?}, expected {want:?}"
        ))
    }
}

/// 64-bit FNV-1a as 16 hex digits.
pub fn hex_hash(bytes: &[u8]) -> String {
    format!("{:016x}", bicord_sweep::contract::fnv1a(bytes))
}
