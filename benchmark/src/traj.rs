//! The trajectory workloads: `traj-cnu6q`, `traj-qram12` (random logical
//! product inputs through `Simulation::fidelity_samples`) and
//! `basis-qram12` (the basis input `|0...0>` through the density-adaptive
//! estimators).
//!
//! Lanes: `op1`/`op2`/`op3` are the qubit-only, mixed-radix and
//! full-ququart strategies. One operation is one estimator call of a
//! fixed batch of trajectories on a `TrajectoryPool` of `nproc` workers;
//! `opK.per_s` counts trajectories per second spent in that lane,
//! `opK.p50_ms`/`opK.p90_ms` the latency of one batch.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use waltz_circuit::Circuit;
use waltz_core::{
    CompileArtifact, CompileOptions, CompiledCircuit, Compiler, Pass, Strategy, Target,
};
use waltz_sim::sparse::SparsePolicy;
use waltz_sim::trajectory;
use waltz_sim::{ideal, Register, SimdLevel, SparseState, State, TrajectoryPool, Workspace};

use crate::hostref;
use crate::mirror::{self, Counts, Program};
use crate::report::{estimate, median, quantile, Report, STRATEGIES};
use crate::trace::{self, Tracer};
use crate::{emit, median_of, mix, nproc, sum_of, Args, Child};

/// Rounds on each side of a batch's own whose reference samples give the
/// host factor it is normalized by (a round is one batch per lane, tens
/// of milliseconds; the host's speed episodes last 1–5 s).
const HOST_WINDOW: usize = 5;

/// Seeds of the two estimates of the fused-vs-unfused check.
const CHECK_SEEDS: [u64; 2] = [1, 2];

/// What one trajectory workload runs.
struct Spec {
    circuit: fn() -> Circuit,
    /// Basis input through the adaptive engine (else random products
    /// through `Simulation::fidelity_samples`).
    basis: bool,
    /// Trajectories per measured batch, per strategy: sized so one batch
    /// takes 10–30 ms at the rates of the seed commit, which gives every
    /// lane well over 100 latency samples per run.
    batch: [usize; 3],
    /// Trajectories per strategy in the traced run (and in each of its
    /// two untraced reference runs).
    trace_n: [usize; 3],
    /// Trajectories of each estimate in the fused-vs-unfused check
    /// (random-input workloads).
    check_n: usize,
    /// Run the full-ququart lane on the unfused schedule. On `qram(3)`
    /// the per-process fuse calibration picks between two full-ququart
    /// schedules (34 or 64 fused ops) that run at rates a factor ~2
    /// apart, in a share of processes that varies with host load, so the
    /// fused lane cannot be held steady; the unfused schedule does not
    /// depend on the calibration. The default (fused) compile is still
    /// made, and its op count reported, in every process.
    full_ququart_unfused: bool,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "traj-cnu6q" => Spec {
            circuit: || waltz_circuits::generalized_toffoli(3),
            basis: false,
            batch: [64, 64, 64],
            trace_n: [600, 600, 1200],
            check_n: 600,
            full_ququart_unfused: false,
        },
        "traj-qram12" => Spec {
            circuit: || waltz_circuits::qram(3),
            basis: false,
            batch: [4, 2, 4],
            trace_n: [60, 30, 60],
            check_n: 40,
            full_ququart_unfused: true,
        },
        "basis-qram12" => Spec {
            circuit: || waltz_circuits::qram(3),
            basis: true,
            batch: [16, 32, 32],
            trace_n: [150, 200, 400],
            check_n: 0,
            full_ququart_unfused: true,
        },
        other => unreachable!("not a trajectory workload: {other}"),
    }
}

impl Spec {
    /// The strategy lane `k` measures, as printed.
    fn lane_name(&self, k: usize) -> String {
        match k {
            2 if self.full_ququart_unfused => "full_ququart_unfused".to_string(),
            _ => STRATEGIES[k].to_string(),
        }
    }
}

fn strategy(k: usize) -> Strategy {
    match k {
        0 => Strategy::qubit_only(),
        1 => Strategy::mixed_radix_ccz(),
        _ => Strategy::full_ququart(),
    }
}

/// Everything the timed part of a run needs, built before the clock
/// starts.
struct Setup {
    compilers: Vec<Compiler>,
    /// The default (fused) compile per strategy.
    defaults: Vec<CompileArtifact>,
    /// The full-ququart lane's unfused compile, when the spec asks for it.
    unfused_full: Option<CompileArtifact>,
    /// Wall time of each `Compiler::compile` call, in ms.
    compile_ms: Vec<f64>,
    pool: Arc<TrajectoryPool>,
}

impl Setup {
    /// The artifact lane `k` measures.
    fn lane(&self, k: usize) -> &CompileArtifact {
        match (&self.unfused_full, k) {
            (Some(a), 2) => a,
            _ => &self.defaults[k],
        }
    }

    fn lanes(&self) -> impl Iterator<Item = &CompileArtifact> {
        (0..3).map(|k| self.lane(k))
    }
}

fn setup(spec: &Spec) -> Result<Setup, String> {
    let circuit = (spec.circuit)();
    let mut compilers = Vec::new();
    let mut artifacts = Vec::new();
    let mut compile_ms = Vec::new();
    for (k, name) in STRATEGIES.iter().enumerate() {
        let compiler = Compiler::new(Target::paper(strategy(k)));
        let t = Instant::now();
        let artifact = compiler
            .compile(&circuit)
            .map_err(|e| format!("compile {name}: {e}"))?;
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        compilers.push(compiler);
        artifacts.push(artifact);
    }
    let unfused_full = if spec.full_ququart_unfused {
        let compiler =
            Compiler::with_options(Target::paper(strategy(2)), CompileOptions::unfused());
        let t = Instant::now();
        let artifact = compiler
            .compile(&circuit)
            .map_err(|e| format!("compile unfused full_ququart: {e}"))?;
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Some(artifact)
    } else {
        None
    };
    Ok(Setup {
        compilers,
        defaults: artifacts,
        unfused_full,
        compile_ms,
        pool: Arc::new(TrajectoryPool::new(nproc())),
    })
}

fn basis_dense(_: &Register, _: &mut StdRng, out: &mut State) {
    fill_zero(out)
}

/// Writes the basis state `|0...0>` into a dense state.
fn fill_zero(out: &mut State) {
    out.fill_product_with(|_, level| {
        if level == 0 {
            waltz_math::C64::ONE
        } else {
            waltz_math::C64::ZERO
        }
    });
}

fn basis_sparse(_: &Register, _: &mut StdRng, out: &mut SparseState) {
    out.fill_basis(0);
}

/// The result of one estimator call: per-trajectory samples where the
/// estimator exposes them, else the (mean, standard error) it returns.
enum Batch {
    Samples(Vec<f64>),
    Estimate(f64, f64),
}

impl Batch {
    /// Fidelity values to range-check.
    fn values(&self) -> Vec<f64> {
        match self {
            Batch::Samples(s) => s.clone(),
            Batch::Estimate(m, _) => vec![*m],
        }
    }

    fn estimate(&self) -> (f64, f64) {
        match self {
            Batch::Samples(s) => estimate(s),
            Batch::Estimate(m, e) => (*m, *e),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Batch::Samples(_) => "per-trajectory samples",
            Batch::Estimate(..) => "(mean, std error)",
        }
    }

    /// Whether `samples` reproduce this output bit for bit (their
    /// estimate, when only the estimate is known).
    fn matches(&self, samples: &[f64]) -> bool {
        match self {
            Batch::Samples(v) => bits(v) == bits(samples),
            Batch::Estimate(..) => {
                let ((m, e), (mm, me)) = (self.estimate(), estimate(samples));
                m.to_bits() == mm.to_bits() && e.to_bits() == me.to_bits()
            }
        }
    }

    /// Largest difference to another output of the same estimator shape.
    fn max_diff(&self, other: &Batch) -> f64 {
        match (self, other) {
            (Batch::Samples(x), Batch::Samples(y)) if x.len() == y.len() => x
                .iter()
                .zip(y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
            (Batch::Estimate(m, _), Batch::Estimate(o, _)) => (m - o).abs(),
            _ => f64::INFINITY,
        }
    }
}

/// One estimator call of `n` trajectories, through the path the workload
/// exercises.
fn run_batch(
    spec: &Spec,
    a: &CompileArtifact,
    pool: &Arc<TrajectoryPool>,
    n: usize,
    seed: u64,
) -> Batch {
    if !spec.basis {
        return Batch::Samples(
            a.simulate()
                .with_pool(Arc::clone(pool))
                .with_seed(seed)
                .fidelity_samples(n),
        );
    }
    let policy = SparsePolicy::default();
    let e = match a.sim_segments() {
        Some(seg) => trajectory::average_fidelity_segmented_adaptive_with_on(
            pool,
            seg,
            a.noise(),
            n,
            seed,
            &policy,
            basis_sparse,
        ),
        None => trajectory::average_fidelity_adaptive_with_on(
            pool,
            a.sim_circuit(),
            a.noise(),
            n,
            seed,
            &policy,
            basis_sparse,
        ),
    };
    Batch::Estimate(e.mean, e.std_error)
}

/// Whether a fidelity sample is a finite value in `[0, 1]` (up to
/// rounding).
fn in_range(f: f64) -> bool {
    f.is_finite() && (-1e-9..=1.0 + 1e-9).contains(&f)
}

/// Scheduled ops the simulator runs for one artifact (summed over
/// windowed segments).
pub fn fused_ops(c: &CompiledCircuit) -> usize {
    Program::of(c).segments().iter().map(|s| s.len()).sum()
}

fn setup_or_exit(spec: &Spec) -> Setup {
    setup(spec).unwrap_or_else(|e| {
        println!("# FAILED: set-up: {e}");
        std::process::exit(1)
    })
}

/// One timed child process: set-up, the ready line, then batches
/// round-robin over the three strategies until `args.seconds` elapse.
pub fn child(workload: &str, args: &Args) {
    let spec = spec(workload);
    let s = setup_or_exit(&spec);
    crate::ready();
    if args.setup_only {
        return;
    }
    let fuse = s.compilers[0].fuse_options();
    emit("fuse.sweep_overhead", fuse.sweep_overhead as f64);
    emit("fuse.sweep_fixed", fuse.sweep_fixed as f64);
    for (k, a) in s.defaults.iter().enumerate() {
        emit(&format!("fused_ops.{k}"), fused_ops(a) as f64);
    }
    // One untimed batch per lane lets lazy set-up (pool wake-up, buffer
    // growth, page faults) finish before the clock starts.
    for (k, a) in s.lanes().enumerate() {
        run_batch(
            &spec,
            a,
            &s.pool,
            spec.batch[k],
            mix(args.seed, u64::MAX - k as u64),
        );
    }
    let mut lat: [Vec<f64>; 3] = Default::default();
    // The round of each batch, to normalize it by the host speed then.
    let mut rounds: [Vec<usize>; 3] = Default::default();
    let mut busy = [0f64; 3];
    let mut done = [0u64; 3];
    let mut sums = [(0f64, 0f64, 0u64); 3];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    let mut host = Vec::new();
    while Instant::now() < deadline {
        host.push(hostref::sample(nproc()));
        for (k, a) in s.lanes().enumerate() {
            let n = spec.batch[k];
            let seed = mix(args.seed, i);
            i += 1;
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| run_batch(&spec, a, &s.pool, n, seed)));
            let dt = t.elapsed().as_secs_f64();
            attempted += n as u64;
            let Ok(b) = r else {
                println!("# FAILED: a {} batch panicked", STRATEGIES[k]);
                failed += n as u64;
                continue;
            };
            let values = b.values();
            let bad = values.iter().filter(|f| !in_range(**f)).count() as u64;
            if bad > 0 {
                println!(
                    "# FAILED: {bad} out-of-range fidelities in a {} batch",
                    STRATEGIES[k]
                );
            }
            failed += bad;
            lat[k].push(dt * 1e3);
            rounds[k].push(host.len() - 1);
            busy[k] += dt;
            done[k] += n as u64;
            for f in values {
                sums[k].0 += f;
                sums[k].1 += f * f;
                sums[k].2 += 1;
            }
        }
    }
    emit("ops.attempted", attempted as f64);
    emit("ops.failed", failed as f64);
    // Every rate and latency twice: raw, and normalized to the nominal
    // host batch by batch, by the host factor around the batch's round.
    emit("host.factor", hostref::factor(&host));
    let factors = hostref::rolling_factors(&host, HOST_WINDOW);
    let norm: Vec<Vec<f64>> = (0..3)
        .map(|k| {
            lat[k]
                .iter()
                .zip(&rounds[k])
                .map(|(ms, r)| ms / factors[*r])
                .collect()
        })
        .collect();
    let both = |name: &str, raw: f64, normalized: f64| {
        emit(name, normalized);
        emit(&format!("raw.{name}"), raw);
    };
    let norm_s: Vec<f64> = norm.iter().map(|v| v.iter().sum::<f64>() / 1e3).collect();
    let total = done.iter().sum::<u64>() as f64;
    both(
        "all.per_s",
        total / busy.iter().sum::<f64>(),
        total / norm_s.iter().sum::<f64>(),
    );
    for k in 0..3 {
        let lane = k + 1;
        both(
            &format!("op{lane}.per_s"),
            done[k] as f64 / busy[k],
            done[k] as f64 / norm_s[k],
        );
        both(
            &format!("op{lane}.p50_ms"),
            median(&lat[k]),
            median(&norm[k]),
        );
        both(
            &format!("op{lane}.p90_ms"),
            quantile(&lat[k], 0.9),
            quantile(&norm[k], 0.9),
        );
        emit(&format!("batches.{k}"), lat[k].len() as f64);
        emit(&format!("fsum.{k}"), sums[k].0);
        emit(&format!("fsumsq.{k}"), sums[k].1);
        emit(&format!("fn.{k}"), sums[k].2 as f64);
    }
}

/// The summary of a timed run: medians over the children, then the
/// output checks, made in this process after every clock stopped.
pub fn finish(workload: &str, args: &Args, children: &[Child], report: &mut Report) {
    let spec = spec(workload);
    report.note(format!("nproc {}", nproc()));
    for (i, c) in children.iter().enumerate() {
        report.note(format!(
            "child {i}: fuse constants sweep_overhead {} sweep_fixed {} (calibrated at \
             Compiler::new, not pinned) | {}",
            c.get("fuse.sweep_overhead"),
            c.get("fuse.sweep_fixed"),
            (0..3)
                .map(|k| format!(
                    "{} compile.fused_ops {}, traj_per_s.{} {:.1}",
                    STRATEGIES[k],
                    c.get(&format!("fused_ops.{k}")),
                    spec.lane_name(k),
                    c.get(&format!("op{}.per_s", k + 1))
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    report.note(format!(
        "rates and latencies below are normalized to the nominal host (see hostref.rs); \
         host factors of the timed processes: {:?}",
        children
            .iter()
            .map(|c| (c.get("host.factor") * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    let metric = |report: &mut Report, name: &str, alias: &str, unit: &str| {
        let raw = median_of(children, &format!("raw.{name}"));
        report.metric(name, Some(alias), median_of(children, name), unit);
        report.note(format!("{alias} raw {raw} {unit}"));
    };
    metric(report, "all.per_s", "traj_per_s.all", "1/s");
    for k in 0..3 {
        let st = &spec.lane_name(k);
        let lane = k + 1;
        let b = spec.batch[k];
        metric(
            report,
            &format!("op{lane}.per_s"),
            &format!("traj_per_s.{st}"),
            "1/s",
        );
        metric(
            report,
            &format!("op{lane}.p50_ms"),
            &format!("batch{b}_p50_ms.{st}"),
            "ms",
        );
        metric(
            report,
            &format!("op{lane}.p90_ms"),
            &format!("batch{b}_p90_ms.{st}"),
            "ms",
        );
        report.note(format!(
            "{st}: {} batches of {b} over {} children",
            sum_of(children, &format!("batches.{k}")),
            children.len()
        ));
    }
    // Pooled (mean, standard error) per strategy over every child.
    let pooled: Vec<(f64, f64, f64)> = (0..3)
        .map(|k| {
            let n = sum_of(children, &format!("fn.{k}"));
            let mean = sum_of(children, &format!("fsum.{k}")) / n;
            let var = (sum_of(children, &format!("fsumsq.{k}")) - n * mean * mean) / (n - 1.0);
            (mean, (var.max(0.0) / n).sqrt(), n)
        })
        .collect();
    let s = match setup(&spec) {
        Ok(s) => s,
        Err(e) => return report.fail(e),
    };
    checks(workload, &spec, &s, args, &pooled, report);
}

/// The output checks of an untimed run, made after the clock stopped.
fn checks(
    workload: &str,
    spec: &Spec,
    s: &Setup,
    args: &Args,
    pooled: &[(f64, f64, f64)],
    report: &mut Report,
) {
    // Kernel path vs the generic dense reference, noiseless.
    for (k, a) in s.defaults.iter().chain(&s.unfused_full).enumerate() {
        let name = if k < 3 {
            STRATEGIES[k]
        } else {
            "full_ququart_unfused"
        };
        let diff = kernel_vs_reference(a, mix(args.seed, 0x7e5 + k as u64));
        report.check(
            &format!("kernel-vs-reference.{name}"),
            diff <= 1e-10,
            format!("max |amp diff| {diff:.3e}, limit 1e-10"),
        );
    }
    if workload == "traj-cnu6q" {
        let (q, m, f) = (pooled[0].0, pooled[1].0, pooled[2].0);
        report.check(
            "fig7-ordering",
            f > m && m > q,
            format!("F full_ququart {f:.4} > mixed_radix {m:.4} > qubit_only {q:.4}"),
        );
    }
    if !spec.basis {
        // Each lane's schedule against the other schedule of its strategy:
        // the unfused compile for a fused lane (the unfused schedule does
        // not depend on the fuse calibration), the default compile for the
        // unfused lane. Both estimates use fixed seeds, as the repository's
        // parity suites do, so the outcome does not depend on the run's
        // seed: at 3 standard errors a check drawn afresh every run would
        // fail a correct program in about one run in sixty.
        let circuit = (spec.circuit)();
        let n = spec.check_n;
        for (k, name) in STRATEGIES.iter().enumerate() {
            let unfused_lane = k == 2 && s.unfused_full.is_some();
            let other = if unfused_lane {
                Ok(Cow::Borrowed(&s.defaults[2]))
            } else {
                Compiler::with_options(Target::paper(strategy(k)), CompileOptions::unfused())
                    .compile(&circuit)
                    .map(Cow::Owned)
            };
            let other = match other {
                Ok(a) => a,
                Err(e) => {
                    report.fail(format!("unfused compile {name}: {e}"));
                    continue;
                }
            };
            let sample = |a: &CompileArtifact, seed: u64| {
                estimate(
                    &a.simulate()
                        .with_pool(Arc::clone(&s.pool))
                        .with_seed(seed)
                        .fidelity_samples(n),
                )
            };
            let (lm, le) = sample(s.lane(k), CHECK_SEEDS[0]);
            let (om, oe) = sample(&other, CHECK_SEEDS[1]);
            let limit = 3.0 * (le * le + oe * oe).sqrt();
            let lane = format!("{lm:.4}±{le:.4}");
            let reference = format!("{om:.4}±{oe:.4}");
            let (fused, unfused) = if unfused_lane {
                (reference, lane)
            } else {
                (lane, reference)
            };
            report.check(
                &format!("fused-vs-unfused.{name}"),
                (lm - om).abs() <= limit,
                format!(
                    "{n} traj each: fused {fused} vs unfused {unfused}, |diff| {:.4} vs 3 \
                     combined standard errors {limit:.4}",
                    (lm - om).abs()
                ),
            );
        }
    } else {
        // The adaptive basis estimator against the dense engine. The
        // repository pins bit-identity against the dense engine at the
        // scalar SIMD level (`sparse_parity`); the estimator at the
        // detected SIMD tier rounds its fused multiply-adds differently,
        // so against it the samples are held to 1e-12 and whether they
        // agree bit for bit is reported.
        let n = 4 * nproc();
        for (k, a) in s.lanes().enumerate() {
            let st = STRATEGIES[k];
            let seed = mix(args.seed, 0xba5 + k as u64);
            let adaptive = adaptive_basis(a, &s.pool, n, seed);
            let mut ws = Workspace::serial();
            ws.set_simd_level(SimdLevel::Scalar);
            let scalar = mirror::dense(
                a,
                a.noise(),
                n,
                seed,
                |_, out| fill_zero(out),
                ws,
                &mut Tracer::new(&mirror::NAMES),
                &mut Counts::default(),
            );
            report.check(
                &format!("adaptive-vs-scalar-dense.{st}"),
                adaptive.matches(&scalar),
                format!("{n} trajectories, {} bits", adaptive.kind()),
            );
            let simd = match a.sim_segments() {
                Some(seg) => {
                    let e = trajectory::average_fidelity_segmented_with_on(
                        &s.pool,
                        seg,
                        a.noise(),
                        n,
                        seed,
                        basis_dense,
                    );
                    Batch::Estimate(e.mean, e.std_error)
                }
                None => Batch::Samples(trajectory::fidelity_samples_with_on(
                    &s.pool,
                    a.sim_circuit(),
                    a.noise(),
                    n,
                    seed,
                    basis_dense,
                )),
            };
            let diff = adaptive.max_diff(&simd);
            report.check(
                &format!("adaptive-vs-dense.{st}"),
                diff <= 1e-12,
                format!(
                    "{n} trajectories, {}: max |diff| {diff:.2e} against the {:?} dense estimator, \
                     bit-identical: {}",
                    adaptive.kind(),
                    SimdLevel::detect(),
                    diff == 0.0
                ),
            );
        }
    }
}

/// The adaptive basis estimator's output: per-trajectory samples for a
/// whole-program schedule, the (mean, standard error) for a windowed one
/// (the segmented adaptive estimator exposes no samples).
fn adaptive_basis(a: &CompileArtifact, pool: &Arc<TrajectoryPool>, n: usize, seed: u64) -> Batch {
    let policy = SparsePolicy::default();
    match a.sim_segments() {
        Some(seg) => {
            let e = trajectory::average_fidelity_segmented_adaptive_with_on(
                pool,
                seg,
                a.noise(),
                n,
                seed,
                &policy,
                basis_sparse,
            );
            Batch::Estimate(e.mean, e.std_error)
        }
        None => Batch::Samples(trajectory::fidelity_samples_adaptive_with_on(
            pool,
            a.sim_circuit(),
            a.noise(),
            n,
            seed,
            &policy,
            basis_sparse,
        )),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Largest amplitude difference between the kernel-path noiseless run of
/// the simulation schedule and the same schedule applied through the
/// generic dense `State::apply_unitary`, from one random product input.
pub fn kernel_vs_reference(c: &CompiledCircuit, seed: u64) -> f64 {
    let prog = Program::of(c);
    let mut initial = State::zero(prog.first_register());
    c.write_random_product_initial_state(&mut StdRng::seed_from_u64(seed), &mut initial);
    let kernel = match c.sim_segments() {
        Some(seg) => {
            let (mut out, mut scratch) = seg.rolling_buffers();
            ideal::run_segmented_into(
                seg,
                &initial,
                &mut out,
                &mut scratch,
                &mut Workspace::serial(),
            );
            out
        }
        None => ideal::run(c.sim_circuit(), &initial),
    };
    let mut reference = initial.clone();
    for (k, segment) in prog.segments().iter().enumerate() {
        if k > 0 {
            let mut next = State::zero(&segment.register);
            reference.reshape_into(&mut next);
            reference = next;
        }
        for op in &segment.ops {
            reference.apply_unitary(&op.unitary, &op.operands);
        }
    }
    if kernel.register() != reference.register() {
        return f64::INFINITY;
    }
    kernel
        .amplitudes()
        .iter()
        .zip(reference.amplitudes())
        .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
        .fold(0.0, f64::max)
}

/// The traced run: per strategy, the same trajectories untraced at pool
/// width 1 and `nproc`, then through the traced mirror.
pub fn traced(workload: &str, args: &Args, report: &mut Report) {
    let spec = &spec(workload);
    let s = &match setup(spec) {
        Ok(s) => s,
        Err(e) => return report.fail(e),
    };
    let fuse = s.compilers[0].fuse_options();
    report.note(format!(
        "nproc {} | fuse constants: sweep_overhead {} sweep_fixed {} max_block_span {} \
         (calibrated at Compiler::new, not pinned)",
        nproc(),
        fuse.sweep_overhead,
        fuse.sweep_fixed,
        fuse.max_block_span
    ));
    if let Some(u) = &s.unfused_full {
        report.note(format!(
            "the full_ququart lane runs the unfused schedule ({} ops); the default compile has {} \
             fused ops (compile.fused_ops.full_ququart)",
            fused_ops(u),
            fused_ops(&s.defaults[2])
        ));
    }
    let serial = Arc::new(TrajectoryPool::serial());
    let policy = SparsePolicy::default();
    let mut tracers = Vec::new();
    let (mut t1_all, mut tn_all, mut n_all) = (0f64, 0f64, 0f64);
    for (k, a) in s.lanes().enumerate() {
        let st = STRATEGIES[k];
        let n = spec.trace_n[k];
        let seed = mix(args.seed, 0x7ace + k as u64);
        // Warm both pools on this program first.
        run_batch(spec, a, &serial, 1, seed);
        run_batch(spec, a, &s.pool, nproc(), seed);
        let reference = |pool: &Arc<TrajectoryPool>| {
            if spec.basis {
                adaptive_basis(a, pool, n, seed)
            } else {
                run_batch(spec, a, pool, n, seed)
            }
        };
        let t = Instant::now();
        let one = reference(&serial);
        let t1 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let wide = reference(&s.pool);
        let tn = t.elapsed().as_secs_f64();
        t1_all += t1;
        tn_all += tn;
        n_all += n as f64;

        let mut tr = Tracer::new(&mirror::NAMES);
        let mut counts = Counts::default();
        let mirrored = if spec.basis {
            mirror::adaptive_basis(a, a.noise(), &policy, n, seed, &mut tr, &mut counts)
        } else {
            mirror::dense(
                a,
                a.noise(),
                n,
                seed,
                |rng, out| a.write_random_product_initial_state(rng, out),
                Workspace::serial(),
                &mut tr,
                &mut counts,
            )
        };
        let bad = mirrored.iter().filter(|f| !in_range(**f)).count() as u64;
        report.ops(n as u64, bad);
        report.check(
            &format!("pool-width-invariance.{st}"),
            one.max_diff(&wide) == 0.0 && one.estimate().1.to_bits() == wide.estimate().1.to_bits(),
            format!("{n} trajectories at width 1 and {}", nproc()),
        );
        report.check(
            &format!("mirror-bit-identical.{st}"),
            one.matches(&mirrored),
            format!("{n} trajectories, {} bits", one.kind()),
        );
        let default_ops = fused_ops(&s.defaults[k]);
        layer_metrics(report, st, a, default_ops, &tr, &counts, t1, spec.basis);
        tracers.push((st.to_string(), tr));
    }
    report.metric(
        "pool.efficiency",
        None,
        (n_all / tn_all) / (nproc() as f64 * n_all / t1_all),
        "ratio",
    );
    compile_metrics(report, s);
    if let Some(dir) = &args.trace_out {
        let refs: Vec<(String, &Tracer)> = tracers.iter().map(|(l, t)| (l.clone(), t)).collect();
        let file = format!("{workload}-seed{}.spans.tsv", args.seed);
        match trace::write_all(dir, &file, &refs) {
            Ok(p) => report.note(format!("spans written to {}", p.display())),
            Err(e) => report.fail(format!("writing spans: {e}")),
        }
    }
}

/// Per-strategy layer metrics from one traced mirror run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    st: &str,
    a: &CompileArtifact,
    default_ops: usize,
    tr: &Tracer,
    counts: &Counts,
    untraced_s: f64,
    basis: bool,
) {
    let n = counts.trajectories as f64;
    let selfs = tr.self_times();
    let root = tr.root_ns() as f64;
    let per = |id: u8| selfs[id as usize].0 as f64 / n;
    let mut m =
        |name: &str, v: f64, unit: &str| report.metric(&format!("{name}.{st}"), None, v, unit);
    m("sim.init_ns", per(mirror::INIT), "ns/traj");
    m("sim.ideal_ns", per(mirror::IDEAL), "ns/traj");
    for id in mirror::APPLY_FIRST..=mirror::APPLY_LAST {
        m(
            &format!("{}_ns", mirror::NAMES[id as usize]),
            per(id),
            "ns/traj",
        );
    }
    m(
        "sim.apply_calls",
        counts.apply_calls as f64 / n,
        "count/traj",
    );
    m("sim.damp_idle_ns", per(mirror::DAMP_IDLE), "ns/traj");
    m("sim.damp_busy_ns", per(mirror::DAMP_BUSY), "ns/traj");
    m("sim.damp_calls", counts.damp_calls as f64 / n, "count/traj");
    m("sim.depol_ns", per(mirror::DEPOL), "ns/traj");
    m(
        "sim.depol_errors",
        counts.depol_errors as f64 / n,
        "count/traj",
    );
    m("sim.reshape_ns", per(mirror::RESHAPE), "ns/traj");
    m(
        "sim.segments",
        Program::of(a).segments().len() as f64,
        "count",
    );
    m("sim.fidelity_ns", per(mirror::FIDELITY), "ns/traj");
    m("sim.traced_ns", root / n, "ns/traj");
    let attributed = 1.0 - selfs[mirror::TRAJ as usize].0 as f64 / root;
    m("sim.attributed_frac", attributed, "ratio");
    m(
        "sim.trace_overhead",
        (root / n) / (untraced_s * 1e9 / n),
        "ratio",
    );
    if basis {
        m("sparse.nnz_peak", counts.nnz_peak as f64, "count");
        m("sparse.bytes_peak", counts.bytes_peak as f64, "B");
        m(
            "sparse.densified_frac",
            counts.densified as f64 / n,
            "ratio",
        );
    }
    m("compile.fused_ops", default_ops as f64, "count");
    report.check(
        &format!("attributed-frac.{st}"),
        (attributed - 1.0).abs() <= 0.1,
        format!("{attributed:.4} of traced time lies in layer spans, limit 1 ± 0.1"),
    );
}

/// Compile-layer metrics of the set-up compiles, summed over the three
/// strategies.
fn compile_metrics(report: &mut Report, s: &Setup) {
    for pass in Pass::ALL {
        let ms: f64 = s
            .defaults
            .iter()
            .chain(&s.unfused_full)
            .map(|a| a.report(pass).wall_ms)
            .sum();
        report.metric(&format!("compile.{}_ms", pass.name()), None, ms, "ms");
    }
    report.metric("compile.total_ms", None, s.compile_ms.iter().sum(), "ms");
    let fuse = s.compilers[0].fuse_options();
    report.metric(
        "compile.fuse_sweep_overhead",
        None,
        fuse.sweep_overhead as f64,
        "count",
    );
    report.metric(
        "compile.fuse_sweep_fixed",
        None,
        fuse.sweep_fixed as f64,
        "count",
    );
}
