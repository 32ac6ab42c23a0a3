//! Child processes under a watchdog.
//!
//! Every repetition runs in its own process so one run's memory, threads
//! and lost wake-ups cannot leak into the next. The parent collects the
//! child's stdout line by line while it runs. A child is hung when it
//! outlives its timeout, or sooner when its CPU time stops advancing for
//! the stall window: a deadlocked process has every thread parked and
//! burns no CPU, while a slow one always does. A hung child has each
//! thread's wait state read from `/proc` (so the hang can be diagnosed
//! from the log) and is then killed and reaped.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one thread of a hung child was blocked in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadWait {
    /// Thread id.
    pub tid: u32,
    /// Thread name (`/proc/<pid>/task/<tid>/comm`).
    pub comm: String,
    /// Kernel wait channel (`wchan`), e.g. `futex_wait_queue`.
    pub wchan: String,
    /// First field of `syscall`: the blocking syscall number, `running`
    /// or `-1` (in user space).
    pub syscall: String,
}

/// How a watched child ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ending {
    /// It exited by itself (`code` is `None` when a signal killed it).
    Exited {
        /// Exit code.
        code: Option<i32>,
    },
    /// It stalled or outlived the timeout and was killed; `waits` is
    /// every thread's state just before the kill.
    Hung {
        /// Per-thread wait states.
        waits: Vec<ThreadWait>,
        /// `true` when killed for making no CPU progress, `false` when
        /// killed at the timeout.
        stalled: bool,
    },
}

/// A finished (or killed) child.
#[derive(Debug, Clone)]
pub struct Watched {
    /// How it ended.
    pub ending: Ending,
    /// Every line it printed on stdout.
    pub lines: Vec<String>,
    /// Wall time from spawn to reap.
    pub elapsed: Duration,
    /// OS process id.
    pub pid: u32,
}

impl Watched {
    /// `true` when the child exited by itself with code 0.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.ending == Ending::Exited { code: Some(0) }
    }
}

/// Run `cmd` to completion, until it makes no CPU progress for `stall`,
/// or until `timeout`, whichever comes first. Stdout is captured line by
/// line; stderr passes through.
pub fn run(mut cmd: Command, timeout: Duration, stall: Duration) -> std::io::Result<Watched> {
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).stdin(Stdio::null()).spawn()?;
    let pid = child.id();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let reader = {
        let stdout = child.stdout.take().expect("stdout is piped");
        let lines = Arc::clone(&lines);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                lines.lock().expect("reader lock").push(line);
            }
        })
    };
    let (mut cpu, mut progressed) = (cpu_ticks(pid), Instant::now());
    let ending = loop {
        if let Some(status) = child.try_wait()? {
            break Ending::Exited {
                code: status.code(),
            };
        }
        let now_cpu = cpu_ticks(pid);
        if now_cpu != cpu {
            (cpu, progressed) = (now_cpu, Instant::now());
        }
        let stalled = progressed.elapsed() >= stall;
        if stalled || start.elapsed() >= timeout {
            let waits = thread_waits(pid);
            // Kill and reap: the pipe closes and the reader finishes.
            let _ = child.kill();
            let _ = child.wait();
            break Ending::Hung { waits, stalled };
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = reader.join();
    let lines = std::mem::take(&mut *lines.lock().expect("reader lock"));
    Ok(Watched {
        ending,
        lines,
        elapsed: start.elapsed(),
        pid,
    })
}

/// User plus system CPU time of every thread of `pid`, in clock ticks
/// (`None` once the process is gone).
#[must_use]
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Each thread's wait state from `/proc/<pid>/task/*/{comm,wchan,syscall}`
/// (empty when `/proc` is unavailable).
#[must_use]
pub fn thread_waits(pid: u32) -> Vec<ThreadWait> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let read = |tid: u32, file: &str| {
        std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/{file}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "?".into())
    };
    let mut waits: Vec<ThreadWait> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .map(|tid| ThreadWait {
            tid,
            comm: read(tid, "comm"),
            wchan: read(tid, "wchan"),
            syscall: read(tid, "syscall")
                .split_whitespace()
                .next()
                .unwrap_or("?")
                .to_string(),
        })
        .collect();
    waits.sort_by_key(|w| w.tid);
    waits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn a_child_that_exits_is_collected_with_its_output() {
        let w = run(sh("echo one; echo two"), LONG, LONG).unwrap();
        assert!(w.succeeded());
        assert_eq!(w.lines, vec!["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn a_failing_child_reports_its_exit_code() {
        let w = run(sh("echo partial; exit 3"), LONG, LONG).unwrap();
        assert_eq!(w.ending, Ending::Exited { code: Some(3) });
        assert!(!w.succeeded());
        assert_eq!(w.lines, vec!["partial".to_string()]);
    }

    #[test]
    fn a_child_that_never_exits_is_killed_at_the_timeout() {
        let timeout = Duration::from_millis(300);
        let w = run(sh("echo started; exec sleep 1000"), timeout, LONG).unwrap();
        let Ending::Hung { waits, stalled } = &w.ending else {
            panic!("expected a hang, got {:?}", w.ending);
        };
        assert!(!stalled);
        assert!(!waits.is_empty(), "the hung child's threads are logged");
        assert!(waits.iter().all(|t| t.tid > 0 && !t.syscall.is_empty()));
        assert_eq!(w.lines, vec!["started".to_string()]);
        assert!(w.elapsed >= timeout && w.elapsed < Duration::from_secs(30));
        // Killed and reaped: the pid no longer names a live process.
        assert!(thread_waits(w.pid).is_empty());
    }

    #[test]
    fn a_child_parked_without_cpu_progress_is_killed_as_stalled() {
        let stall = Duration::from_millis(300);
        let w = run(sh("exec sleep 1000"), LONG, stall).unwrap();
        let Ending::Hung { stalled, .. } = w.ending else {
            panic!("expected a stall, got {:?}", w.ending);
        };
        assert!(stalled);
        assert!(w.elapsed < Duration::from_secs(10));
    }

    #[test]
    fn a_busy_child_is_not_mistaken_for_a_stalled_one() {
        // Burns CPU for longer than the stall window, then exits.
        let busy = "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done; echo done";
        let w = run(sh(busy), LONG, Duration::from_millis(300)).unwrap();
        assert!(w.succeeded(), "{:?}", w.ending);
        assert_eq!(w.lines, vec!["done".to_string()]);
    }
}
