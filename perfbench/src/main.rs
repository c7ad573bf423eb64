//! The flowplace benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <place|churn|storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines (input sizes, work fingerprint, failure
//! accounting) go to stdout first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]),
//! measured untraced; with `--trace 1` they are the per-layer set
//! ([`PER_LAYER`]) from a separate traced phase of the same seed.
//! `perfbench/README.md` says what each workload and metric means.

mod control;
mod place;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics and units, reported by every workload with
/// `--trace 0`. Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("events_per_s", "1/s"),
    ("tcam_entries", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, reported by every workload with
/// `--trace 1` (zero where the layer does not run on the workload).
/// Must match `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("core.depgraph.ms", "ms"),
    ("core.depgraph.edges", "count"),
    ("core.candidates.ms", "ms"),
    ("core.candidates.vars", "count"),
    ("core.greedy.ms", "ms"),
    ("core.encode_ilp.ms", "ms"),
    ("core.encode_ilp.rows", "count"),
    ("core.encode_ilp.cols", "count"),
    ("milp.presolve.ms", "ms"),
    ("milp.lp.ms", "ms"),
    ("milp.bnb.ms", "ms"),
    ("milp.lp_iterations", "count"),
    ("milp.nodes", "count"),
    ("milp.us_per_lp_iteration", "us"),
    ("core.decode.ms", "ms"),
    ("core.encode_sat.ms", "ms"),
    ("core.encode_sat.vars", "count"),
    ("core.encode_sat.constraints", "count"),
    ("pbsat.solve.ms", "ms"),
    ("pbsat.conflicts", "count"),
    ("pbsat.propagations", "count"),
    ("core.warm.memo_hit_rate", "ratio"),
    ("core.warm.candidates_reused", "count"),
    ("core.incremental.ms", "ms"),
    ("core.tables.emit.ms", "ms"),
    ("core.tables.entries", "count"),
    ("core.verify.ms", "ms"),
    ("core.verify.routes", "count"),
    ("ctrl.dataplane.diff.ms", "ms"),
    ("ctrl.dataplane.apply.ms", "ms"),
    ("ctrl.dataplane.installed", "count"),
    ("ctrl.dataplane.removed", "count"),
    ("ctrl.cache.lookup.ns", "ns"),
    ("ctrl.cache.misses", "count"),
    ("ctrl.cache.miss_batches", "count"),
    ("ctrl.cache.resync.ms", "ms"),
    ("ctrl.tier.greedy", "ratio"),
    ("ctrl.tier.restricted", "ratio"),
    ("ctrl.tier.full", "ratio"),
    ("ctrl.tier.delegated", "ratio"),
    ("ctrl.unattributed.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.epoch_ms_mean", "ms"),
    ("trace.span_ms_mean", "ms"),
    ("place_ms_p50", "ms"),
    ("placements_per_s", "1/s"),
    ("flows_per_s", "1/s"),
    ("cache_hit_rate", "ratio"),
    ("fail_rate", "ratio"),
    ("input.rules", "count"),
    ("input.routes", "count"),
    ("input.instances", "count"),
    ("input.events", "count"),
    ("input.flows", "count"),
    ("input.epochs", "count"),
    ("input.tenants", "count"),
];

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: solves on `place`, events submitted on
    /// the controller workloads.
    pub attempted: u64,
    /// Operations that failed (see the README's `fail_rate`).
    pub failed: u64,
    /// Metric values by name; names missing here read 0.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// How long each measured phase runs: all of `--seconds` untraced;
    /// half each for the untraced and the traced phase with `--trace 1`.
    pub fn phase_seconds(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "place" => place::run(&args),
        "churn" => control::run(control::Shape::Churn, &args),
        "storm" => control::run(control::Shape::Storm, &args),
        other => {
            eprintln!("perfbench: unknown workload {other} (want place, churn or storm)");
            return ExitCode::from(2);
        }
    };
    if !outcome.correct {
        // No numbers from wrong work: the checks that failed were
        // printed above.
        eprintln!("perfbench: output checks failed; no result reported");
        return ExitCode::from(1);
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            stats::json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
