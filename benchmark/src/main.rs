//! End-to-end benchmark of the trajectory engine and the loopback
//! compile/simulate service, with a traced per-layer run.
//!
//! ```text
//! waltz-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--trace-out <dir>]
//! ```
//!
//! Workloads: `traj-cnu6q`, `traj-qram12`, `basis-qram12`, `serve-mixed`
//! (see `NOTES.md` next to this package for why each exists and what
//! every metric means). Every line before the last is one metric or one
//! note for a human; the last line is the JSON summary. The process exits
//! non-zero when any output check fails.

mod hostref;
mod mirror;
mod report;
mod serve;
mod trace;
mod traj;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use report::Report;

/// How many fresh processes a timed run is split across. Each one sets
/// the workload up (one `setup_s` sample), then measures a third of the
/// run; the summary reports the median over the processes. Fresh
/// processes matter here: `Compiler::new` calibrates the fuse constants
/// once per process, and the compiled schedules depend on them.
const CHILDREN: usize = 3;

/// Set-up-only processes run before the timed children: with them a run
/// takes `SETUP_PROBES + CHILDREN` samples of `setup_s`.
const SETUP_PROBES: usize = 10;

/// The line a child prints once its set-up is complete.
const READY: &str = "@ready";

/// Reference samples a child takes right after its set-up, to normalize
/// its `setup_s` sample.
const SETUP_REF_SAMPLES: usize = 8;

/// Marks a child's set-up complete, then reports the host factor of a
/// single thread (see `hostref`).
pub fn ready() {
    println!("{READY}");
    let samples: Vec<f64> = (0..SETUP_REF_SAMPLES).map(|_| hostref::sample(1)).collect();
    emit("setup.host_factor", hostref::factor(&samples));
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    child: bool,
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        child: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--child" => args.child = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Every workload this benchmark knows.
pub const WORKLOADS: [&str; 4] = ["traj-cnu6q", "traj-qram12", "basis-qram12", "serve-mixed"];

/// Worker count for the trajectory pool, the server and the clients.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A 64-bit mix (splitmix64 finalizer): derives independent per-batch
/// and per-request seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one child process reported.
pub struct Child {
    /// Seconds from spawn to the child's ready line.
    pub ready_s: f64,
    /// Every `@m <name> <value>` line.
    pub values: BTreeMap<String, f64>,
}

impl Child {
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Median over the children of one reported value.
pub fn median_of(children: &[Child], name: &str) -> f64 {
    report::median(&children.iter().map(|c| c.get(name)).collect::<Vec<_>>())
}

/// Sum over the children of one reported value.
pub fn sum_of(children: &[Child], name: &str) -> f64 {
    children.iter().map(|c| c.get(name)).sum()
}

/// Prints one machine-read value from a child.
pub fn emit(name: &str, value: f64) {
    println!("@m {name} {value}");
}

/// Prints one check outcome from a child.
pub fn emit_check(name: &str, ok: bool, detail: &str) {
    println!("@check {name} {} {detail}", u8::from(ok));
}

/// Runs `SETUP_PROBES` set-up-only processes, then the timed part in
/// `CHILDREN` fresh processes, one after another, each measuring
/// `seconds / CHILDREN`. Child notes and checks are forwarded; a child
/// that fails to start or exits non-zero fails the run. Returns every
/// process's (set-up time, host factor) and the timed children.
fn run_children(args: &Args, report: &mut Report) -> (Vec<(f64, f64)>, Vec<Child>) {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            report.fail(format!("current_exe: {e}"));
            return (Vec::new(), Vec::new());
        }
    };
    let mut setup = Vec::with_capacity(SETUP_PROBES + CHILDREN);
    let mut children = Vec::with_capacity(CHILDREN);
    for i in 0..SETUP_PROBES + CHILDREN {
        let probe = i < SETUP_PROBES;
        let t0 = Instant::now();
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &mix(args.seed, 0xc41d + i as u64).to_string()])
            .args(["--seconds", &(args.seconds / CHILDREN as f64).to_string()])
            .args(["--trace", "0", "--child"])
            .stdout(Stdio::piped());
        if probe {
            cmd.arg("--setup-only");
        }
        let spawned = cmd.spawn();
        let mut proc = match spawned {
            Ok(p) => p,
            Err(e) => {
                report.fail(format!("spawn child: {e}"));
                continue;
            }
        };
        let stdout = proc.stdout.take().expect("piped stdout");
        let mut child = Child {
            ready_s: f64::NAN,
            values: BTreeMap::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line == READY {
                child.ready_s = t0.elapsed().as_secs_f64();
            } else if let Some(rest) = line.strip_prefix("@m ") {
                let mut it = rest.splitn(2, ' ');
                let (Some(k), Some(v)) = (it.next(), it.next()) else {
                    report.fail(format!("child {i}: malformed line {line:?}"));
                    continue;
                };
                child
                    .values
                    .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
            } else if let Some(rest) = line.strip_prefix("@check ") {
                let mut it = rest.splitn(3, ' ');
                let name = it.next().unwrap_or("?");
                let ok = it.next() == Some("1");
                report.check(&format!("{name}.child{i}"), ok, it.next().unwrap_or(""));
            } else {
                println!("# child {i}: {}", line.trim_start_matches("# "));
            }
        }
        match proc.wait() {
            Ok(status) if status.success() && child.ready_s.is_finite() => {
                setup.push((child.ready_s, child.get("setup.host_factor")));
                if !probe {
                    children.push(child);
                }
            }
            Ok(status) => report.fail(format!("child {i} exited with {status}")),
            Err(e) => report.fail(format!("wait child {i}: {e}")),
        }
    }
    (setup, children)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.child {
        match args.workload.as_str() {
            "serve-mixed" => serve::child(&args),
            w => traj::child(w, &args),
        }
        if args.setup_only {
            return;
        }
        emit("rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
        return;
    }

    let mut report = Report::new(&args);
    if args.trace {
        match args.workload.as_str() {
            "serve-mixed" => serve::traced(&args, &mut report),
            w => traj::traced(w, &args, &mut report),
        }
    } else {
        let (setup, children) = run_children(&args, &mut report);
        if children.len() == CHILDREN {
            report.setup(&setup);
            report.rss(median_of(&children, "rss_mib"));
            report.ops(
                sum_of(&children, "ops.attempted") as u64,
                sum_of(&children, "ops.failed") as u64,
            );
            match args.workload.as_str() {
                "serve-mixed" => serve::finish(&args, &children, &mut report),
                w => traj::finish(w, &args, &children, &mut report),
            }
        }
    }
    let ok = report.finish();
    std::process::exit(if ok { 0 } else { 1 });
}
