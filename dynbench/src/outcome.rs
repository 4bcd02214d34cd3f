//! What one run of one workload produces.

use crate::metrics::Values;

/// The arguments of one run, as the driver passes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCfg {
    pub seed: u64,
    /// How long to measure for.
    pub seconds: f64,
    /// `false`: tracing off, report the end-to-end metrics. `true`: the
    /// traced pass and the layer probes, report the per-layer metrics.
    pub trace: bool,
    /// Cut every size down so the whole pipeline runs in a second or
    /// two (tests). Numbers from a smoke run mean nothing.
    pub smoke: bool,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    pub checks: Vec<Check>,
    /// FNV-1a 64 of everything the simulation let an operator see.
    pub digest: u64,
    /// Whether `digest` equals the recorded one; `None` when none is
    /// recorded for this seed and size.
    pub digest_match: Option<bool>,
    /// Free-text lines for the person reading the output.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail: detail.into(),
        });
    }

    pub fn failed_checks(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count()
    }
}
