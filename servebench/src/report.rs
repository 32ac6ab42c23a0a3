//! One repetition's report, as a child prints it and the parent reads it
//! back, and the aggregation of repetitions into end-to-end metrics.

use crate::calib::correction;
use crate::stats::median;
use crate::watchdog::{Ending, Watched};
use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;

/// Line prefix announcing a run's first attempts before it serves.
pub const ARRIVALS_TAG: &str = "@arrivals ";
/// Line prefix carrying a finished run's JSON report.
pub const RESULT_TAG: &str = "@result ";

/// What one child run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepReport {
    /// Seconds from process start of the workload to the serving call.
    pub setup_s: f64,
    /// Wall seconds of the serving call.
    pub serve_s: f64,
    /// Host speed around the serving call, relative to the reference
    /// (see [`crate::calib`]); 0 on workloads that are not corrected.
    pub host_speed: f64,
    /// First-attempt requests (arrivals, or closed-loop issues).
    pub first_attempts: u64,
    /// Deliveries the fabric resolved (first attempts plus retries).
    pub deliveries: u64,
    /// Requests served.
    pub served: u64,
    /// Served within the deadline.
    pub goodput: u64,
    /// Requests whose final resolution was a shed.
    pub shed_final: u64,
    /// Requests that never resolved (a node worker died with them).
    pub lost: u64,
    /// `(percentile, ms)` reported for the p50 and p99 SLO slots; the
    /// percentile may be lower than wanted under the tail rule.
    pub slo: [(f64, f64); 2],
    /// Latency samples the SLO percentiles are drawn from.
    pub slo_samples: u64,
    /// Peak resident memory of the child, MB.
    pub peak_rss_mb: f64,
    /// Failed output checks, by description.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

impl RepReport {
    /// Serialize as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let layers: Map = self
            .layers
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
            .collect();
        serde_json::json!({
            "setup_s": self.setup_s,
            "serve_s": self.serve_s,
            "host_speed": self.host_speed,
            "first_attempts": self.first_attempts,
            "deliveries": self.deliveries,
            "served": self.served,
            "goodput": self.goodput,
            "shed_final": self.shed_final,
            "lost": self.lost,
            "slo": [[self.slo[0].0, self.slo[0].1], [self.slo[1].0, self.slo[1].1]],
            "slo_samples": self.slo_samples,
            "peak_rss_mb": self.peak_rss_mb,
            "failures": self.failures.clone(),
            "layers": Value::Object(layers),
        })
    }

    /// Parse what [`RepReport::to_json`] wrote.
    #[must_use]
    pub fn from_json(v: &Value) -> Option<RepReport> {
        let v = v.as_object()?;
        let f = |k: &str| v.get(k)?.as_f64();
        let u = |k: &str| v.get(k)?.as_u64();
        let slo = v.get("slo")?.as_array()?;
        let pair = |i: usize| -> Option<(f64, f64)> {
            let p = slo.get(i)?.as_array()?;
            Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
        };
        Some(RepReport {
            setup_s: f("setup_s")?,
            serve_s: f("serve_s")?,
            host_speed: f("host_speed")?,
            first_attempts: u("first_attempts")?,
            deliveries: u("deliveries")?,
            served: u("served")?,
            goodput: u("goodput")?,
            shed_final: u("shed_final")?,
            lost: u("lost")?,
            slo: [pair(0)?, pair(1)?],
            slo_samples: u("slo_samples")?,
            peak_rss_mb: f("peak_rss_mb")?,
            failures: v
                .get("failures")?
                .as_array()?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
            layers: v
                .get("layers")?
                .as_object()?
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect(),
        })
    }
}

/// How one child run ended, as the parent accounts it.
#[derive(Debug, Clone, PartialEq)]
pub enum RepOutcome {
    /// It finished and reported (its checks may still have failed).
    Done(RepReport),
    /// It never finished and was killed; `first_attempts` is what it
    /// announced (or an estimate when it died before announcing).
    Hung {
        /// Requests the run was serving.
        first_attempts: u64,
    },
    /// It exited without a report (panic, crash, bad exit code).
    Crashed {
        /// Requests the run was serving.
        first_attempts: u64,
    },
}

impl RepOutcome {
    /// First attempts this run was responsible for.
    #[must_use]
    pub fn first_attempts(&self) -> u64 {
        match self {
            RepOutcome::Done(r) => r.first_attempts,
            RepOutcome::Hung { first_attempts } | RepOutcome::Crashed { first_attempts } => {
                *first_attempts
            }
        }
    }

    /// Requests this run failed: final sheds and lost requests of a
    /// healthy run; every request of a run that hung, crashed or failed
    /// a check.
    #[must_use]
    pub fn failed_requests(&self) -> u64 {
        match self {
            RepOutcome::Done(r) if r.failures.is_empty() => r.shed_final + r.lost,
            other => other.first_attempts(),
        }
    }

    /// Requests lost to a run-level failure (hang, crash, failed check),
    /// not counting ordinary sheds.
    #[must_use]
    pub fn run_failed_requests(&self) -> u64 {
        match self {
            RepOutcome::Done(r) if r.failures.is_empty() => 0,
            other => other.first_attempts(),
        }
    }
}

/// Account a watched child: a report from a clean exit is a finished
/// run; a kill is a hang charged with the requests the child announced;
/// any other ending is a crash.
#[must_use]
pub fn outcome_of(w: &Watched) -> RepOutcome {
    let first_attempts = w
        .lines
        .iter()
        .find_map(|l| l.strip_prefix(ARRIVALS_TAG)?.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let report = w.lines.iter().find_map(|l| {
        let v: Value = serde_json::from_str(l.strip_prefix(RESULT_TAG)?).ok()?;
        RepReport::from_json(&v)
    });
    match (&w.ending, report) {
        (Ending::Hung { .. }, _) => RepOutcome::Hung { first_attempts },
        (_, Some(rep)) if w.succeeded() => RepOutcome::Done(rep),
        _ => RepOutcome::Crashed { first_attempts },
    }
}

/// End-to-end metrics over a set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median set-up seconds of finished runs, host-speed corrected.
    pub setup_s: f64,
    /// Median per-run deliveries per wall second of the serving call,
    /// host-speed corrected.
    pub throughput_rps: f64,
    /// Failed ÷ attempted over every run, hung and crashed ones included.
    pub fail_frac: f64,
    /// Served within deadline ÷ first attempts over finished runs.
    pub goodput_frac: f64,
    /// Median p50 SLO of finished runs, ms.
    pub slo_p50_ms: f64,
    /// Median p99 SLO of finished runs, ms.
    pub slo_p99_ms: f64,
    /// Deliveries ÷ first attempts over finished runs.
    pub retry_amp: f64,
    /// Median peak RSS of finished runs, MB.
    pub peak_rss_mb: f64,
    /// First attempts over every run.
    pub attempted: u64,
    /// Requests lost to hung, crashed or check-failed runs.
    pub run_failed: u64,
    /// Runs that hung.
    pub hung: usize,
    /// Runs that crashed.
    pub crashed: usize,
    /// Finished runs with a failed check.
    pub check_failed: usize,
}

/// Fold runs into end-to-end metrics. Timed metrics use finished runs
/// only; `fail_frac` charges every request of a run that did not finish
/// cleanly.
#[must_use]
pub fn summarize(runs: &[RepOutcome]) -> Summary {
    let done: Vec<&RepReport> = runs
        .iter()
        .filter_map(|r| match r {
            RepOutcome::Done(rep) => Some(rep),
            _ => None,
        })
        .collect();
    let med =
        |f: &dyn Fn(&RepReport) -> f64| median(&done.iter().map(|r| f(r)).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&RepReport) -> u64| done.iter().map(|r| f(r)).sum::<u64>();
    let attempted: u64 = runs.iter().map(RepOutcome::first_attempts).sum();
    let failed: u64 = runs.iter().map(RepOutcome::failed_requests).sum();
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            f64::NAN
        } else {
            a as f64 / b as f64
        }
    };
    Summary {
        setup_s: med(&|r| r.setup_s * correction(r.host_speed)),
        throughput_rps: med(&|r| r.deliveries as f64 / r.serve_s / correction(r.host_speed)),
        fail_frac: ratio(failed, attempted),
        goodput_frac: ratio(sum(&|r| r.goodput), sum(&|r| r.first_attempts)),
        slo_p50_ms: med(&|r| r.slo[0].1),
        slo_p99_ms: med(&|r| r.slo[1].1),
        retry_amp: ratio(sum(&|r| r.deliveries), sum(&|r| r.first_attempts)),
        peak_rss_mb: med(&|r| r.peak_rss_mb),
        attempted,
        run_failed: runs.iter().map(RepOutcome::run_failed_requests).sum(),
        hung: runs
            .iter()
            .filter(|r| matches!(r, RepOutcome::Hung { .. }))
            .count(),
        crashed: runs
            .iter()
            .filter(|r| matches!(r, RepOutcome::Crashed { .. }))
            .count(),
        check_failed: done.iter().filter(|r| !r.failures.is_empty()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(serve_s: f64, first: u64, shed: u64) -> RepReport {
        RepReport {
            setup_s: 0.5,
            serve_s,
            host_speed: 1.0,
            first_attempts: first,
            deliveries: first,
            served: first - shed,
            goodput: first - shed,
            shed_final: shed,
            slo: [(50.0, 1.0), (99.0, 9.0)],
            slo_samples: first - shed,
            peak_rss_mb: 10.0,
            ..RepReport::default()
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = rep(1.25, 1_000, 100);
        r.failures.push("x".into());
        r.layers.insert("gateway.admit_ns".into(), 2_345.5);
        let text = serde_json::to_string(&r.to_json()).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(RepReport::from_json(&back), Some(r));
    }

    #[test]
    fn hung_runs_count_every_request_as_failed() {
        let runs = vec![
            RepOutcome::Done(rep(1.0, 1_000, 100)),
            RepOutcome::Hung {
                first_attempts: 1_000,
            },
            RepOutcome::Done(rep(2.0, 1_000, 100)),
        ];
        let s = summarize(&runs);
        assert_eq!(s.attempted, 3_000);
        assert_eq!(s.hung, 1);
        assert_eq!(s.run_failed, 1_000);
        // 100 + 1000 + 100 failed of 3000 attempted.
        assert!((s.fail_frac - 1_200.0 / 3_000.0).abs() < 1e-12);
        // Timed metrics come from the finished runs only.
        assert!((s.throughput_rps - 750.0).abs() < 1e-9);
        assert!((s.goodput_frac - 0.9).abs() < 1e-12);
        assert_eq!(s.retry_amp, 1.0);
    }

    #[test]
    fn a_child_that_never_exits_is_killed_and_counted_as_failed() {
        use std::time::Duration;
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c")
            .arg(format!("echo '{ARRIVALS_TAG}500'; exec sleep 1000"));
        let w = crate::watchdog::run(cmd, Duration::from_secs(30), Duration::from_millis(300))
            .expect("spawn sh");
        let hung = outcome_of(&w);
        assert_eq!(
            hung,
            RepOutcome::Hung {
                first_attempts: 500
            }
        );
        let s = summarize(&[RepOutcome::Done(rep(1.0, 500, 50)), hung]);
        assert_eq!((s.hung, s.attempted, s.run_failed), (1, 1_000, 500));
        assert!((s.fail_frac - 550.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn a_clean_exit_without_a_report_is_a_crash() {
        use std::time::Duration;
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c")
            .arg(format!("echo '{ARRIVALS_TAG}70'; exit 101"));
        let w = crate::watchdog::run(cmd, Duration::from_secs(30), Duration::from_secs(30))
            .expect("spawn sh");
        assert_eq!(outcome_of(&w), RepOutcome::Crashed { first_attempts: 70 });
        let mut ok = std::process::Command::new("sh");
        let line = format!(
            "{RESULT_TAG}{}",
            serde_json::to_string(&rep(1.0, 9, 1).to_json()).unwrap()
        );
        ok.arg("-c").arg(format!("echo '{line}'"));
        let w = crate::watchdog::run(ok, Duration::from_secs(30), Duration::from_secs(30))
            .expect("spawn sh");
        assert_eq!(outcome_of(&w), RepOutcome::Done(rep(1.0, 9, 1)));
    }

    #[test]
    fn wall_clock_metrics_are_host_speed_corrected() {
        let mut slow = rep(2.0, 1_000, 0);
        slow.host_speed = 0.25;
        let s = summarize(&[RepOutcome::Done(slow)]);
        // 500 req/s at a quarter speed reads as 1000; set-up halves.
        assert!((s.throughput_rps - 1_000.0).abs() < 1e-9);
        assert!((s.setup_s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_failed_check_fails_the_whole_run() {
        let mut bad = rep(1.0, 500, 0);
        bad.failures.push("refunds do not balance".into());
        let s = summarize(&[RepOutcome::Done(rep(1.0, 500, 50)), RepOutcome::Done(bad)]);
        assert_eq!(s.check_failed, 1);
        assert_eq!(s.run_failed, 500);
        assert!((s.fail_frac - 550.0 / 1_000.0).abs() < 1e-12);
    }
}
