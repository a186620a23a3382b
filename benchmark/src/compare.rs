//! `--compare A.json B.json`: judges suite document B against A, one row per gated
//! metric and workload, with the catalogue's bounds.

use std::fmt::Write as _;

use serde_json::Value;

use crate::catalogue::{self, Better, MetricDef};
use crate::workloads::Workload;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The fast edge of the windows or passes behind a value is wider than the bound,
    /// and the two sides' edges overlap: the bound cannot be judged.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's measurement of a metric: the value and, where the value is the fast-side
/// decile of windows or passes, the fast edge around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// The windows' values a twentieth and a fifth of the way in from the fast end, in
    /// ascending order: a run that reached the undisturbed level often has them close
    /// together, one that barely did has them far apart.
    pub edge: Option<(f64, f64)>,
}

impl Reading {
    fn spread(&self) -> f64 {
        match self.edge {
            Some((low, high)) if self.value != 0.0 => (high - low) / self.value.abs(),
            _ => 0.0,
        }
    }

    /// The interval the reading covers: its fast edge, or just the value.
    fn range(&self) -> (f64, f64) {
        self.edge.unwrap_or((self.value, self.value))
    }
}

/// Judges `b` against `a` for a metric of the given direction and bound.
pub fn judge(better: Better, bound: f64, a: Reading, b: Reading) -> Verdict {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the bound, unless one side's whole range clears the other's.
        let ((a_low, a_high), (b_low, b_high)) = (a.range(), b.range());
        let (b_clearly_worse, b_clearly_better) = match better {
            Better::Lower => (b_low > a_high, b_high < a_low),
            Better::Higher => (b_high < a_low, b_low > a_high),
        };
        return if b_clearly_worse && worsening > bound {
            Verdict::Worse
        } else if b_clearly_better && worsening < -bound {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(document: &Value, workload: Workload, metric: &str) -> Option<Reading> {
    let entry = &document["workloads"][workload.name()]["untraced"]["metrics"][metric];
    let value = entry["value"].as_f64()?;
    let edge =
        entry["fast_5"].as_f64().zip(entry["fast_20"].as_f64()).map(|(a, b)| (a.min(b), a.max(b)));
    Some(Reading { value, edge })
}

/// Compares two suite documents. Returns the report and whether any row is worse.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let gated = |workload: Workload| -> Vec<&'static MetricDef> {
        let layer = catalogue::LAYER_GATES
            .iter()
            .filter(move |(_, on)| *on == workload)
            .filter_map(|(name, _)| catalogue::find(name));
        catalogue::END_TO_END.iter().chain(layer).collect()
    };
    let _ = writeln!(
        out,
        "{:<14} {:<30} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for workload in Workload::ALL {
        for def in gated(workload) {
            let bound = def.bound.expect("gated metrics carry a bound");
            let (Some(ra), Some(rb)) =
                (reading(a, workload, def.name), reading(b, workload, def.name))
            else {
                let _ =
                    writeln!(out, "{:<14} {:<30} missing from one side", workload.name(), def.name);
                any_worse = true;
                continue;
            };
            let verdict = judge(def.better, bound, ra, rb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<30} {:>16.4} {:>16.4} {:>+8.2}% {:>6.1}%  {}",
                workload.name(),
                def.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                verdict.name()
            );
        }
    }
    for (label, document) in [("A", a), ("B", b)] {
        for workload in Workload::ALL {
            let failed = document["workloads"][workload.name()]["untraced"]["failed"].as_u64();
            if failed != Some(0) {
                any_worse = true;
                let _ = writeln!(out, "{label}: {} failed {failed:?} operations", workload.name());
            }
        }
    }
    (out, any_worse)
}
