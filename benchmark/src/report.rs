//! Metric collection, output checks and the printed summary.
//!
//! The summary's metric names are fixed by `BENCHMARK.json`: a run with
//! `--trace 0` reports every end-to-end metric, a run with `--trace 1`
//! every per-layer metric. Both sets are the same on every workload, so
//! the end-to-end metrics use neutral lane names (`op1`..`op3`) whose
//! meaning depends on the workload; each is also printed under its
//! workload-specific alias (`traj_per_s.mixed_radix`, `cold_p50_ms`, ...).

use crate::Args;

/// The paper's three compilation strategies, in the order of the lanes.
pub const STRATEGIES: [&str; 3] = ["qubit_only", "mixed_radix", "full_ququart"];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("all.per_s", "1/s"),
    ("op1.per_s", "1/s"),
    ("op2.per_s", "1/s"),
    ("op3.per_s", "1/s"),
    ("op1.p50_ms", "ms"),
    ("op2.p50_ms", "ms"),
    ("op3.p50_ms", "ms"),
    ("op1.p90_ms", "ms"),
    ("op2.p90_ms", "ms"),
    ("op3.p90_ms", "ms"),
];

/// Per-layer metrics reported once per strategy (`<name>.<strategy>`).
pub const PER_STRATEGY: [(&str, &str); 24] = [
    ("sim.init_ns", "ns/traj"),
    ("sim.ideal_ns", "ns/traj"),
    ("sim.apply.identity_ns", "ns/traj"),
    ("sim.apply.diagonal_ns", "ns/traj"),
    ("sim.apply.permutation_ns", "ns/traj"),
    ("sim.apply.single_qudit_ns", "ns/traj"),
    ("sim.apply.two_qudit_ns", "ns/traj"),
    ("sim.apply.general_dense_ns", "ns/traj"),
    ("sim.apply_calls", "count/traj"),
    ("sim.damp_idle_ns", "ns/traj"),
    ("sim.damp_busy_ns", "ns/traj"),
    ("sim.damp_calls", "count/traj"),
    ("sim.depol_ns", "ns/traj"),
    ("sim.depol_errors", "count/traj"),
    ("sim.reshape_ns", "ns/traj"),
    ("sim.segments", "count"),
    ("sim.fidelity_ns", "ns/traj"),
    ("sim.traced_ns", "ns/traj"),
    ("sim.attributed_frac", "ratio"),
    ("sim.trace_overhead", "ratio"),
    ("sparse.nnz_peak", "count"),
    ("sparse.bytes_peak", "B"),
    ("sparse.densified_frac", "ratio"),
    ("compile.fused_ops", "count"),
];

/// Per-layer metrics reported once per run.
pub const GLOBAL_LAYERS: [(&str, &str); 22] = [
    ("pool.efficiency", "ratio"),
    ("compile.decompose_ms", "ms"),
    ("compile.map_ms", "ms"),
    ("compile.route_ms", "ms"),
    ("compile.analyze_ms", "ms"),
    ("compile.schedule_ms", "ms"),
    ("compile.fuse_ms", "ms"),
    ("compile.lower_ms", "ms"),
    ("compile.total_ms", "ms"),
    ("compile.fuse_sweep_overhead", "count"),
    ("compile.fuse_sweep_fixed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us", "us"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.artifact_kib", "KiB"),
    ("serve.ping_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.bytes_per_req", "B"),
    ("serve.queue_high_water", "count"),
    ("serve.sim_inproc_ms", "ms"),
];

/// Every per-layer metric name with its unit, in summary order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (name, unit) in PER_STRATEGY {
        for s in STRATEGIES {
            names.push((format!("{name}.{s}"), unit));
        }
    }
    for (name, unit) in GLOBAL_LAYERS {
        names.push((name.to_string(), unit));
    }
    names
}

/// Collects metrics, operation counts and check outcomes for one run.
pub struct Report {
    trace: bool,
    workload: String,
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        Report {
            trace: args.trace,
            workload: args.workload.clone(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Prints a note for a human reader (never part of the summary).
    pub fn note(&self, text: impl AsRef<str>) {
        println!("# {}", text.as_ref());
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        println!("# FAILED: {why}");
        self.ops(1, 1);
    }

    /// Records one output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl AsRef<str>) {
        println!(
            "# check {name}: {} ({})",
            if ok { "ok" } else { "FAILED" },
            detail.as_ref()
        );
        self.ops(1, u64::from(!ok));
    }

    /// Records one operation that succeeded or failed, printing only a
    /// failure.
    pub fn check_quiet(&mut self, ok: bool) {
        if !ok {
            println!("# FAILED: an operation of the traced run");
        }
        self.ops(1, u64::from(!ok));
    }

    /// Records a metric. `alias` is the workload-specific name printed
    /// next to the summary name, when it differs.
    pub fn metric(&mut self, name: &str, alias: Option<&str>, value: f64, unit: &str) {
        match alias {
            Some(a) => println!("{a} = {name} {value} {unit}"),
            None => println!("{name} {value} {unit}"),
        }
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records the set-up time: the median over the processes of each
    /// one's spawn-to-ready time over its host factor (see `hostref`).
    pub fn setup(&mut self, samples: &[(f64, f64)]) {
        let raw: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let normalized: Vec<f64> = samples.iter().map(|(t, h)| t / h).collect();
        self.note(format!(
            "setup over {} processes: raw median {:.4} s, host factors {:?}",
            samples.len(),
            median(&raw),
            samples
                .iter()
                .map(|s| (s.1 * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        if !self.trace {
            self.metric("setup_s", None, median(&normalized), "s");
        }
    }

    /// Records the peak resident set.
    pub fn rss(&mut self, mib: f64) {
        if !self.trace {
            self.metric("peak_rss_mib", None, mib, "MiB");
        }
    }

    /// Prints the summary line. Returns whether the run is correct.
    pub fn finish(mut self) -> bool {
        let expected: Vec<(String, &str)> = if self.trace {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut entries = Vec::with_capacity(expected.len());
        let mut missing = Vec::new();
        for (name, unit) in &expected {
            let found = self.metrics.iter().rev().find(|(n, _, _)| n == name);
            match found {
                Some((_, v, u)) if u == unit && v.is_finite() => entries.push((name.clone(), *v)),
                Some((_, v, u)) => {
                    missing.push(format!(
                        "{name}: {v} {u} (expected a finite value in {unit})"
                    ));
                    entries.push((name.clone(), 0.0));
                }
                // A layer this workload does not exercise reads 0.
                None if self.trace => entries.push((name.clone(), 0.0)),
                None => {
                    missing.push(format!("{name}: not measured"));
                    entries.push((name.clone(), 0.0));
                }
            }
        }
        if !self.trace {
            for (name, v) in &entries {
                if *v <= 0.0 && !missing.iter().any(|m| m.starts_with(name.as_str())) {
                    missing.push(format!("{name}: {v} (end-to-end metrics are never 0)"));
                }
            }
        }
        for m in missing {
            self.fail(format!("metric {m}"));
        }
        let attempted = self.attempted.max(1);
        println!(
            "fail_frac {} ratio ({} of {} operations failed, workload {})",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted,
            self.workload
        );
        let correct = self.failed == 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed
        );
        for (i, ((name, value), (_, unit))) in entries.iter().zip(&expected).enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// Median of a sample (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample; NaN when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean and Bessel-corrected standard error, computed exactly as the
/// simulator's estimator does (so a mirror of it can be compared bit for
/// bit).
pub fn estimate(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() < 2 {
        0.0
    } else {
        samples.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0)
    };
    (mean, (var / n).sqrt())
}
