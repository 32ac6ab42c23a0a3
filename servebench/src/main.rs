//! `servebench` — the repository's end-to-end serving benchmark.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench compare <BENCHMARK.json> <first runs...> -- <second runs...>
//! ```
//!
//! One invocation runs one workload: an untimed parity run, then timed
//! repetitions until `--seconds` have passed, each repetition in its own
//! child process under a watchdog. With `--trace 1` one more repetition
//! records spans and per-layer probes. Human-readable lines go first;
//! the last stdout line is the JSON result. `compare` applies the
//! acceptance rules (spread within bound, second median within bound of
//! the first) to saved outputs of earlier invocations.

mod calib;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use report::{summarize, RepOutcome, RepReport, Summary, ARRIVALS_TAG, RESULT_TAG};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use watchdog::Ending;
use workloads::{Mode, Workload};

/// Timed repetitions run even when `--seconds` is already spent.
const MIN_TIMED_REPS: usize = 3;
/// Cap on timed repetitions per invocation.
const MAX_TIMED_REPS: usize = 40;
/// Wall budget of a whole invocation: no child outlives it.
const INVOCATION_BUDGET: Duration = Duration::from_secs(160);
/// A child may not start with less than this left of the budget.
const MIN_CHILD_BUDGET: Duration = Duration::from_secs(5);
/// A child whose CPU time stops advancing this long is deadlocked.
const STALL: Duration = Duration::from_secs(2);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => parent_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("unexpected argument `{k}`"));
        };
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    f.get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("bad value for --{key}"))
}

fn workload_flag(f: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name: String = flag(f, "workload")?;
    Workload::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL
            .iter()
            .chain(&Workload::EXTRA)
            .map(|w| w.name())
            .collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

/// Where runs write their records and spans.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------- child

fn child_main(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let workload = workload_flag(&f)?;
    let seed: u64 = flag(&f, "seed")?;
    let mode_name: String = flag(&f, "mode")?;
    let mode = Mode::parse(&mode_name).ok_or_else(|| format!("unknown mode `{mode_name}`"))?;
    let tracer = if mode == Mode::Traced {
        Tracer::on(format!(
            "{}-seed{seed}-pid{}",
            workload.name(),
            std::process::id()
        ))
    } else {
        Tracer::off()
    };
    let announce = |n: u64| {
        println!("{ARRIVALS_TAG}{n}");
        let _ = std::io::stdout().flush();
    };
    let mut rep = workloads::run_rep(workload, seed, mode, &tracer, announce);
    if tracer.enabled() {
        let spans = tracer.spans();
        let probe_s: f64 = spans
            .iter()
            .filter(|s| s.name == "probe")
            .map(trace::Span::seconds)
            .sum();
        rep.layers.insert("trace.spans".into(), spans.len() as f64);
        rep.layers.insert("trace.serve_s".into(), rep.serve_s);
        rep.layers.insert("trace.probe_s".into(), probe_s);
        write_json(
            &format!("spans-{}-seed{seed}.json", workload.name()),
            &serde_json::json!({
                "workload": workload.name(),
                "seed": seed,
                "host": host_info(),
                "spans": tracer.to_json(),
            }),
        );
    }
    println!(
        "{RESULT_TAG}{}",
        serde_json::to_string(&rep.to_json()).expect("json")
    );
    Ok(())
}

// --------------------------------------------------------------- parent

/// Host parallelism (also the live node-thread count), pool size and
/// source revision of a run.
fn host_info() -> Value {
    serde_json::json!({
        "nproc": workloads::node_threads(),
        "rayon_threads": rayon::pool::effective_threads(),
        "commit": git_commit(),
    })
}

/// The checkout's commit, read from the repository's own `.git` (so
/// nothing outside the checkout is consulted), or `unknown` without one.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let resolve = || -> Option<String> {
        let head = read("HEAD")?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        read(name).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(name)?.trim().to_string()))
        })
    };
    resolve()
        .filter(|c| !c.is_empty())
        .map_or_else(|| "unknown".into(), |c| c.chars().take(12).collect())
}

fn write_json(name: &str, v: &Value) {
    let dir = out_dir();
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, serde_json::to_vec_pretty(v).expect("json")));
    if let Err(e) = written {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }
}

/// One child's outcome plus what the log needs about it.
struct ChildRun {
    mode: Mode,
    outcome: RepOutcome,
    ending: Ending,
    elapsed_s: f64,
}

fn spawn_child(
    workload: Workload,
    seed: u64,
    mode: Mode,
    timeout: Duration,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ])
    .args(["--mode", mode.name()]);
    let w = watchdog::run(cmd, timeout, STALL).map_err(|e| format!("spawn child: {e}"))?;
    let outcome = report::outcome_of(&w);
    match (&w.ending, &outcome) {
        (Ending::Hung { waits, stalled }, _) => {
            eprintln!(
                "# HUNG: workload={} seed={seed} mode={} pid={} killed after {:.1}s ({}); \
                 thread wait states:",
                workload.name(),
                mode.name(),
                w.pid,
                w.elapsed.as_secs_f64(),
                if *stalled {
                    "no CPU progress"
                } else {
                    "timeout"
                },
            );
            for t in waits {
                eprintln!(
                    "#   tid={} comm={} wchan={} syscall={}",
                    t.tid, t.comm, t.wchan, t.syscall
                );
            }
        }
        (ending, RepOutcome::Crashed { .. }) => eprintln!(
            "# CRASHED: workload={} seed={seed} mode={} ended {ending:?} without a report",
            workload.name(),
            mode.name()
        ),
        _ => {}
    }
    if let RepOutcome::Done(rep) = &outcome {
        for failure in &rep.failures {
            eprintln!(
                "# CHECK FAILED: workload={} seed={seed} mode={}: {failure}",
                workload.name(),
                mode.name()
            );
        }
    }
    Ok(ChildRun {
        mode,
        outcome,
        ending: w.ending,
        elapsed_s: w.elapsed.as_secs_f64(),
    })
}

/// Per-child watchdog limit: generous against each workload's normal
/// run time, and never past the invocation budget.
fn child_timeout(workload: Workload) -> Duration {
    match workload {
        Workload::FleetClosedLoop | Workload::InferenceLive | Workload::OverloadSim => {
            Duration::from_secs(60)
        }
        Workload::OverloadLive => Duration::from_secs(12),
    }
}

fn parent_main(args: &[String]) -> Result<(), String> {
    let f = flags(args)?;
    let workload = workload_flag(&f)?;
    let seed: u64 = flag(&f, "seed")?;
    let seconds: u64 = flag(&f, "seconds")?;
    let traced = match flag::<u8>(&f, "trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let host = host_info();
    println!(
        "# servebench workload={} seed={seed} seconds={seconds} trace={} nproc={} (live node \
         threads) rayon_threads={} commit={}",
        workload.name(),
        u8::from(traced),
        host["nproc"].as_u64().unwrap_or(0),
        host["rayon_threads"].as_u64().unwrap_or(0),
        host["commit"].as_str().unwrap_or("unknown"),
    );
    println!("# why: {}", workload.why());

    let start = Instant::now();
    let limit = |want: Duration| -> Option<Duration> {
        let left = INVOCATION_BUDGET.checked_sub(start.elapsed())?;
        (left >= MIN_CHILD_BUDGET).then(|| want.min(left))
    };
    let timeout = child_timeout(workload);
    let mut runs: Vec<ChildRun> = Vec::new();
    // Parity first: untimed, and it proves the backend before timing it.
    if let Some(t) = limit(timeout) {
        runs.push(spawn_child(workload, seed, Mode::Parity, t)?);
    }
    let measure_start = Instant::now();
    let budget = Duration::from_secs(seconds);
    loop {
        let timed = runs.iter().filter(|r| r.mode == Mode::Timed).count();
        if timed >= MAX_TIMED_REPS || (timed >= MIN_TIMED_REPS && measure_start.elapsed() >= budget)
        {
            break;
        }
        let Some(t) = limit(timeout) else { break };
        runs.push(spawn_child(workload, seed, Mode::Timed, t)?);
    }
    if traced {
        if let Some(t) = limit(timeout) {
            runs.push(spawn_child(workload, seed, Mode::Traced, t)?);
        }
    }

    let all: Vec<RepOutcome> = runs.iter().map(|r| r.outcome.clone()).collect();
    let timed: Vec<RepOutcome> = runs
        .iter()
        .filter(|r| r.mode == Mode::Timed)
        .map(|r| r.outcome.clone())
        .collect();
    let accounting = summarize(&all);
    let timing = summarize(&timed);
    // Timed metrics from the timed runs; failure accounting from every
    // run, so a hang anywhere is charged.
    let summary = Summary {
        fail_frac: accounting.fail_frac,
        attempted: accounting.attempted,
        run_failed: accounting.run_failed,
        hung: accounting.hung,
        crashed: accounting.crashed,
        check_failed: accounting.check_failed,
        ..timing
    };
    let parity = runs.iter().find(|r| r.mode == Mode::Parity);
    let parity_note = match parity.map(|r| &r.outcome) {
        Some(RepOutcome::Done(rep)) if rep.failures.is_empty() => "verified",
        Some(RepOutcome::Done(_)) => "FAILED",
        Some(RepOutcome::Hung { .. }) => "unverified (the parity run hung)",
        Some(RepOutcome::Crashed { .. }) => "unverified (the parity run crashed)",
        None => "not run (invocation budget spent)",
    };
    let finished_timed = timed
        .iter()
        .filter(|r| matches!(r, RepOutcome::Done(_)))
        .count();
    let correct = summary.check_failed == 0 && summary.crashed == 0 && finished_timed > 0;

    println!(
        "# runs: timed={} finished={finished_timed} hung={} crashed={} check_failed={} parity={parity_note}",
        timed.len(),
        summary.hung,
        summary.crashed,
        summary.check_failed,
    );
    let done_reps: Vec<&RepReport> = timed
        .iter()
        .filter_map(|r| match r {
            RepOutcome::Done(rep) => Some(rep),
            _ => None,
        })
        .collect();
    let values = metrics::end_to_end_values(&summary);
    for ((name, unit), value) in metrics::END_TO_END.iter().zip(values) {
        let note = match *name {
            "slo_p50_ms" | "slo_p99_ms" => {
                let slot = usize::from(*name == "slo_p99_ms");
                done_reps.first().map_or(String::new(), |r| {
                    format!("  (p{} over {} samples)", r.slo[slot].0, r.slo_samples)
                })
            }
            "fail_frac" => format!(
                "  ({} of {} requests; {} in hung/crashed/failed runs)",
                (summary.fail_frac * summary.attempted as f64).round(),
                summary.attempted,
                summary.run_failed
            ),
            _ => String::new(),
        };
        println!("{name} = {value} {unit}{note}");
    }

    let uncorrected: Vec<f64> = done_reps
        .iter()
        .map(|r| r.deliveries as f64 / r.serve_s)
        .collect();
    let speeds: Vec<f64> = done_reps.iter().map(|r| r.host_speed).collect();
    if workload.host_corrected() {
        println!(
            "# uncorrected throughput = {} req/s at a median host speed of {}",
            stats::median(&uncorrected),
            stats::median(&speeds)
        );
    }

    let mut metrics_out = serde_json::Map::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        let value = if value.is_finite() { value } else { 0.0 };
        metrics_out.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    };
    if traced {
        let traced_rep = runs.iter().find_map(|r| match (&r.mode, &r.outcome) {
            (Mode::Traced, RepOutcome::Done(rep)) => Some(rep),
            _ => None,
        });
        let mut layers = traced_rep.map(|r| r.layers.clone()).unwrap_or_default();
        layers.insert("exec.hung_runs".into(), summary.hung as f64);
        let untraced = stats::median(&done_reps.iter().map(|r| r.serve_s).collect::<Vec<_>>());
        layers.insert("trace.untraced_serve_s".into(), untraced);
        if let Some(rep) = traced_rep {
            layers.insert("trace.overhead_frac".into(), rep.serve_s / untraced - 1.0);
        }
        for (name, unit) in metrics::PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name} = {value} {unit}");
            put(name, value, unit);
        }
    } else {
        for ((name, unit), value) in metrics::END_TO_END.iter().zip(values) {
            put(name, value, unit);
        }
    }

    write_json(
        &format!(
            "run-{}-seed{seed}-trace{}.json",
            workload.name(),
            u8::from(traced)
        ),
        &serde_json::json!({
            "workload": workload.name(),
            "why": workload.why(),
            "seed": seed,
            "seconds": seconds,
            "host": host,
            "parity": parity_note,
            "runs": runs.iter().map(run_record).collect::<Vec<_>>(),
        }),
    );

    let failed = summary.run_failed;
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({
            "correct": correct,
            "attempted": summary.attempted.max(1),
            "failed": failed,
            "metrics": Value::Object(metrics_out),
        }))
        .expect("json")
    );
    Ok(())
}

fn run_record(r: &ChildRun) -> Value {
    let (ending, report) = match &r.outcome {
        RepOutcome::Done(rep) => ("finished", rep.to_json()),
        RepOutcome::Hung { first_attempts } => (
            "hung",
            serde_json::json!({ "first_attempts": *first_attempts }),
        ),
        RepOutcome::Crashed { first_attempts } => (
            "crashed",
            serde_json::json!({ "first_attempts": *first_attempts }),
        ),
    };
    let waits = match &r.ending {
        Ending::Hung { waits, .. } => waits.as_slice(),
        Ending::Exited { .. } => &[],
    };
    let waits: Vec<Value> = waits
        .iter()
        .map(|t| {
            serde_json::json!({
                "tid": t.tid,
                "comm": t.comm.clone(),
                "wchan": t.wchan.clone(),
                "syscall": t.syscall.clone(),
            })
        })
        .collect();
    serde_json::json!({
        "mode": r.mode.name(),
        "ending": ending,
        "elapsed_s": r.elapsed_s,
        "report": report,
        "thread_waits": waits,
    })
}

// -------------------------------------------------------------- compare

/// `compare <BENCHMARK.json> <first...> -- <second...>`: each run file
/// holds one invocation's stdout (its last line is the JSON result).
fn compare_main(args: &[String]) -> Result<(), String> {
    let (bench_path, rest) = args.split_first().ok_or("compare needs BENCHMARK.json")?;
    let split = rest.iter().position(|a| a == "--");
    let (first, second) = match split {
        Some(i) => (&rest[..i], &rest[i + 1..]),
        None => (rest, &rest[..0]),
    };
    let bench: Value = serde_json::from_str(
        &std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?,
    )
    .map_err(|e| format!("{bench_path}: {e:?}"))?;
    let load = |files: &[String]| -> Result<Vec<Value>, String> {
        files
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                let last = text.lines().last().ok_or_else(|| format!("{p}: empty"))?;
                serde_json::from_str(last).map_err(|e| format!("{p}: {e:?}"))
            })
            .collect()
    };
    let (a, b) = (load(first)?, load(second)?);
    let values = |set: &[Value], name: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|v| v["metrics"][name]["value"].as_f64())
            .collect()
    };
    let mut ok = true;
    for m in bench["end_to_end"].as_array().ok_or("no end_to_end list")? {
        let name = m["name"].as_str().unwrap_or("?");
        let bound = m["bound"].as_f64().unwrap_or(0.0);
        let better =
            stats::Better::parse(m["better"].as_str().unwrap_or("")).ok_or("bad `better`")?;
        let va = values(&a, name);
        let sa = stats::spread(&va);
        let mut line = format!(
            "{name}: median {:.6} spread {} (bound {bound})",
            stats::median(&va),
            sa.map_or("n/a".into(), |s| format!("{s:.4}"))
        );
        if name != "setup_s" && sa.is_some_and(|s| s > bound) {
            ok = false;
            line.push_str("  SPREAD OVER BOUND");
        }
        if !b.is_empty() {
            let vb = values(&b, name);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse = stats::worse_by(ma, mb, better);
            line.push_str(&format!(
                " | second median {mb:.6}, worse by {}",
                worse.map_or("n/a".into(), |w| format!("{w:.4}"))
            ));
            if stats::exceeds_bound(ma, mb, better, bound) {
                ok = false;
                line.push_str("  OVER BOUND");
            }
        }
        println!("{line}");
    }
    if ok {
        Ok(())
    } else {
        Err("acceptance rules not met".into())
    }
}
