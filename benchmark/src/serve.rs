//! The `serve-mixed` workload: an in-process `Server` on 127.0.0.1:0 and
//! `nproc` closed-loop `ServeClient` connections, each sending a seeded
//! 2:1:1 mix of cold compiles, warm (cached) compiles and simulate
//! requests.
//!
//! Lanes: `op1` = cold, `op2` = warm, `op3` = sim; `opK.per_s` counts
//! completed requests of that kind per second of the run, `all.per_s` all
//! requests, `opK.p50_ms`/`opK.p90_ms` the client-observed latency.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waltz_circuit::Circuit;
use waltz_codec::{content_hash, decode_from_slice, encode_to_vec, Encode};
use waltz_core::{ArtifactCache, CompileArtifact, Compiler, JobReport, Pass, Strategy, Target};
use waltz_serve::{ArtifactSource, ServeClient, Server, ServerConfig};
use waltz_sim::TrajectoryPool;

use crate::report::{median, quantile, Report};
use crate::trace::{self, Tracer};
use crate::{emit, median_of, mix, nproc, Args, Child};

/// Trajectories and chunk size of one simulate request.
const SIM_TRAJECTORIES: usize = 64;
const SIM_CHUNK: usize = 32;
/// Cold compiles (the first and the most recent) and simulations per
/// client kept for the output checks.
const KEEP: usize = 2;
/// The warm artifact every simulate request runs (cnu-6q).
const SIM_ARTIFACT: usize = 0;

const KINDS: [&str; 3] = ["cold", "warm", "sim"];
const COLD: usize = 0;
const WARM: usize = 1;
const SIM: usize = 2;

/// The warm set: pre-compiled during set-up, so requests for them are
/// cache hits returning 0.15–1 MB frames.
fn warm_circuits() -> Vec<Circuit> {
    vec![
        waltz_circuits::generalized_toffoli(3),
        waltz_circuits::cuccaro_adder(2),
        waltz_circuits::qram(2),
        waltz_circuits::select(2, 3, 4, 1),
    ]
}

/// A unique cold circuit: the full seven-pass pipeline on every request.
fn cold_circuit(rng: &mut StdRng) -> Circuit {
    let cx_fraction = rng.gen_range(0.2..0.8);
    waltz_circuits::synthetic(8, 30, cx_fraction, rng.gen())
}

struct Setup {
    server: Server,
    clients: Vec<ServeClient>,
    warm: Vec<Circuit>,
    /// The pre-warm compile's artifacts, one per warm circuit.
    warm_artifacts: Vec<CompileArtifact>,
    fingerprint: u64,
}

fn setup() -> Result<Setup, String> {
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()))
        .with_artifact_cache(ArtifactCache::new());
    let fingerprint = compiler.fingerprint();
    let server = Server::bind(
        "127.0.0.1:0",
        compiler,
        ServerConfig::default().with_workers(nproc()),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::new();
    for _ in 0..nproc() {
        clients.push(ServeClient::connect(addr.clone()).map_err(|e| format!("connect: {e}"))?);
    }
    let warm = warm_circuits();
    let reports = clients[0]
        .compile_batch(warm.clone())
        .map_err(|e| format!("pre-warm: {e}"))?;
    let warm_artifacts = reports
        .into_iter()
        .map(|r| r.result.map_err(|e| format!("pre-warm compile: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        server,
        clients,
        warm,
        warm_artifacts,
        fingerprint,
    })
}

fn setup_or_exit() -> Setup {
    setup().unwrap_or_else(|e| {
        println!("# FAILED: set-up: {e}");
        std::process::exit(1)
    })
}

/// One completed (or failed) request.
struct Req {
    kind: usize,
    /// When the request was sent, and its client-observed latency.
    start: Instant,
    ms: f64,
    ok: bool,
    /// Compile requests: the job's own wall time and cache flag.
    job_ms: Option<f64>,
    cached: bool,
    /// Cold requests: each pass's wall time from the artifact's reports.
    passes: Option<[f64; 7]>,
}

/// What one client kept for the output checks.
#[derive(Default)]
struct Kept {
    cold: Vec<(Circuit, CompileArtifact)>,
    recent: std::collections::VecDeque<(Circuit, CompileArtifact)>,
    /// (seed, fidelities) of simulate requests.
    sims: Vec<(u64, Vec<f64>)>,
}

struct Load {
    reqs: Vec<Req>,
    kept: Vec<Kept>,
    seconds: f64,
}

/// Runs every client in a closed loop for `seconds`: each sends its next
/// request only after the previous one completed.
fn load(s: &mut Setup, seed: u64, seconds: f64) -> Load {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let warm_hashes: Vec<u64> = s.warm.iter().map(content_hash).collect();
    let (fingerprint, warm) = (s.fingerprint, &s.warm);
    let per_client: Vec<(Vec<Req>, Kept)> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let warm_hashes = &warm_hashes;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5e7 + c as u64));
                    let mut reqs = Vec::new();
                    let mut kept = Kept::default();
                    let mut block: Vec<usize> = Vec::new();
                    let mut warm_sent = c;
                    while Instant::now() < deadline {
                        if block.is_empty() {
                            // The 2:1:1 mix, shuffled within each block of four.
                            block = vec![COLD, COLD, WARM, SIM];
                            for i in (1..4).rev() {
                                block.swap(i, rng.gen_range(0..=i));
                            }
                        }
                        let kind = block.pop().expect("non-empty block");
                        let mut req = Req {
                            kind,
                            start: Instant::now(),
                            ms: 0.0,
                            ok: false,
                            job_ms: None,
                            cached: false,
                            passes: None,
                        };
                        if kind == SIM {
                            let sim_seed = rng.gen();
                            let source = ArtifactSource::Cached {
                                circuit_hash: warm_hashes[SIM_ARTIFACT],
                                fingerprint,
                            };
                            req.start = Instant::now();
                            let r = client.simulate(source, SIM_TRAJECTORIES, sim_seed, SIM_CHUNK);
                            req.ms = req.start.elapsed().as_secs_f64() * 1e3;
                            match r {
                                Ok(sim) => {
                                    req.ok = sim.fidelities.len() == SIM_TRAJECTORIES
                                        && sim.fidelities.iter().all(|f| {
                                            f.is_finite() && (-1e-9..=1.0 + 1e-9).contains(f)
                                        });
                                    if kept.sims.len() < KEEP {
                                        kept.sims.push((sim_seed, sim.fidelities));
                                    }
                                }
                                Err(e) => println!("# FAILED: simulate: {e}"),
                            }
                        } else {
                            let circuit = if kind == COLD {
                                cold_circuit(&mut rng)
                            } else {
                                // Round-robin, so every warm circuit is touched
                                // often enough that cold inserts never evict it
                                // from the 64-entry LRU cache.
                                warm_sent += 1;
                                warm[warm_sent % warm.len()].clone()
                            };
                            let keep = (kind == COLD).then(|| circuit.clone());
                            req.start = Instant::now();
                            let r = client.compile_batch(vec![circuit]);
                            req.ms = req.start.elapsed().as_secs_f64() * 1e3;
                            match r.map(|mut v| v.pop()) {
                                Ok(Some(JobReport {
                                    result: Ok(artifact),
                                    wall_ms,
                                    cached,
                                    ..
                                })) => {
                                    req.ok = true;
                                    req.job_ms = Some(wall_ms);
                                    req.cached = cached;
                                    if kind == COLD {
                                        req.passes =
                                            Some(Pass::ALL.map(|p| artifact.report(p).wall_ms));
                                    }
                                    if let Some(c) = keep {
                                        if kept.cold.len() < KEEP {
                                            kept.cold.push((c, artifact));
                                        } else {
                                            kept.recent.push_back((c, artifact));
                                            if kept.recent.len() > KEEP {
                                                kept.recent.pop_front();
                                            }
                                        }
                                    }
                                }
                                Ok(Some(JobReport { result: Err(e), .. })) => {
                                    println!("# FAILED: {} job: {e}", KINDS[kind])
                                }
                                Ok(None) => println!("# FAILED: empty batch report"),
                                Err(e) => println!("# FAILED: {} request: {e}", KINDS[kind]),
                            }
                        }
                        reqs.push(req);
                    }
                    (reqs, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut reqs = Vec::new();
    let mut kept = Vec::new();
    for (r, k) in per_client {
        reqs.extend(r);
        kept.push(k);
    }
    Load {
        reqs,
        kept,
        seconds,
    }
}

/// An uncached twin of the serving compiler: same target, options and
/// (per-process) fuse constants, so it must reproduce every program.
fn uncached_twin(compiler: &Compiler) -> Compiler {
    Compiler::with_options(compiler.target().clone(), *compiler.options())
}

/// The checks a process makes on what its own server served. `check`
/// records one outcome.
fn served_checks(s: &Setup, l: &Load, check: &mut dyn FnMut(&str, bool, String)) {
    let compiler = s.server.supervisor().compiler();
    let warm_ok = l.reqs.iter().filter(|r| r.kind == WARM && r.ok);
    let (hits, total) = warm_ok.fold((0, 0), |(h, t), r| (h + usize::from(r.cached), t + 1));
    check(
        "warm-requests-hit-cache",
        hits == total,
        format!("{hits} of {total} warm compiles were cache hits"),
    );
    let twin = uncached_twin(compiler);
    let mut served: Vec<(&Circuit, &CompileArtifact)> = l
        .kept
        .iter()
        .flat_map(|k| k.cold.iter().chain(&k.recent).map(|(c, a)| (c, a)))
        .collect();
    served.extend(s.warm.iter().zip(&s.warm_artifacts));
    for (i, (circuit, artifact)) in served.into_iter().enumerate() {
        // While the circuit is still cached the server's compiler replays
        // the stored artifact, which must be the served bytes exactly.
        // Once evicted it recompiles, and the pass reports (wall times,
        // running cache counters) cannot match: then the program is
        // compared.
        let (ok, how) = match compiler.compile(circuit) {
            Ok(a) if a.is_cached() => (
                encode_to_vec(&a) == encode_to_vec(artifact),
                "cache replay, all bytes",
            ),
            Ok(a) => (
                program_bytes(&a) == program_bytes(artifact),
                "evicted and recompiled, program bytes",
            ),
            Err(_) => (false, "compile failed"),
        };
        check(
            &format!("served-artifact-identical.{i}"),
            ok,
            format!("served artifact vs the server's compiler: {how}"),
        );
        let fresh = twin.compile(circuit).map(|a| program_bytes(&a));
        check(
            &format!("served-program-recompiles.{i}"),
            fresh == Ok(program_bytes(artifact)),
            "compiled circuit and noise model vs an uncached twin's compile".to_string(),
        );
    }
    for (i, (seed, remote)) in l.kept.iter().flat_map(|k| k.sims.iter()).enumerate() {
        let local = s.warm_artifacts[SIM_ARTIFACT]
            .simulate()
            .with_seed(*seed)
            .with_pool(TrajectoryPool::global())
            .fidelity_samples(SIM_TRAJECTORIES);
        let same = local.len() == remote.len()
            && local
                .iter()
                .zip(remote)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        check(
            &format!("remote-sim-bit-equal.{i}"),
            same,
            format!("{SIM_TRAJECTORIES} remote samples vs in-process fidelity_samples, same seed"),
        );
    }
}

/// The wire encoding of an artifact's compiled circuit and noise model.
/// Its pass reports are left out: they carry wall times and the
/// compiler's running cache counters, which no recompilation reproduces.
fn program_bytes(a: &CompileArtifact) -> Vec<u8> {
    let mut w = waltz_codec::ByteWriter::new();
    a.compiled().encode(&mut w);
    a.noise().encode(&mut w);
    w.into_bytes()
}

/// Latencies (ms) of the successful requests of one kind.
fn latencies(l: &Load, kind: usize) -> Vec<f64> {
    l.reqs
        .iter()
        .filter(|r| r.kind == kind && r.ok)
        .map(|r| r.ms)
        .collect()
}

/// One timed child process: set-up, the ready line, the closed-loop load
/// for `args.seconds`, then the checks on what this server served.
pub fn child(args: &Args) {
    let mut s = setup_or_exit();
    crate::ready();
    if args.setup_only {
        drop(s.clients);
        s.server.shutdown();
        return;
    }
    let fuse = s.server.supervisor().compiler().fuse_options();
    emit("fuse.sweep_overhead", fuse.sweep_overhead as f64);
    emit("fuse.sweep_fixed", fuse.sweep_fixed as f64);
    let l = load(&mut s, args.seed, args.seconds);
    emit("ops.attempted", l.reqs.len() as f64);
    emit("ops.failed", l.reqs.iter().filter(|r| !r.ok).count() as f64);
    emit(
        "all.per_s",
        l.reqs.iter().filter(|r| r.ok).count() as f64 / l.seconds,
    );
    for kind in 0..3 {
        let lat = latencies(&l, kind);
        let lane = kind + 1;
        emit(&format!("op{lane}.per_s"), lat.len() as f64 / l.seconds);
        emit(&format!("op{lane}.p50_ms"), median(&lat));
        emit(&format!("op{lane}.p90_ms"), quantile(&lat, 0.9));
        emit(&format!("n.{kind}"), lat.len() as f64);
    }
    served_checks(&s, &l, &mut |name, ok, detail| {
        crate::emit_check(name, ok, &detail)
    });
    drop(s.clients);
    s.server.shutdown();
}

/// The summary of a timed run: medians over the children, then the
/// noiseless kernel check on the warm set.
pub fn finish(_args: &Args, children: &[Child], report: &mut Report) {
    report.note(format!(
        "nproc {} (server workers and client connections)",
        nproc()
    ));
    for (i, c) in children.iter().enumerate() {
        report.note(format!(
            "child {i}: fuse constants sweep_overhead {} sweep_fixed {} (calibrated at \
             Compiler::new, not pinned) | requests cold {} warm {} sim {}",
            c.get("fuse.sweep_overhead"),
            c.get("fuse.sweep_fixed"),
            c.get("n.0"),
            c.get("n.1"),
            c.get("n.2"),
        ));
    }
    report.metric(
        "all.per_s",
        Some("req_per_s"),
        median_of(children, "all.per_s"),
        "1/s",
    );
    for (kind, name) in KINDS.iter().enumerate() {
        let lane = kind + 1;
        for (m, unit) in [("per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms")] {
            let metric = format!("op{lane}.{m}");
            report.metric(
                &metric,
                Some(&format!("{name}_{m}")),
                median_of(children, &metric),
                unit,
            );
        }
    }
    let compiler = Compiler::new(Target::paper(Strategy::mixed_radix_ccz()));
    for (i, c) in warm_circuits().iter().enumerate() {
        match compiler.compile(c) {
            Ok(a) => {
                let diff = crate::traj::kernel_vs_reference(&a, mix(0x5e7e, i as u64));
                report.check(
                    &format!("kernel-vs-reference.warm{i}"),
                    diff <= 1e-10,
                    format!("max |amp diff| {diff:.3e}, limit 1e-10"),
                );
            }
            Err(e) => report.fail(format!("compile warm circuit {i}: {e}")),
        }
    }
}

/// Span names of the serve trace.
const SPAN_NAMES: [&str; 9] = [
    "serve.cold",
    "serve.warm",
    "serve.sim",
    "serve.ping",
    "cache.get",
    "codec.encode",
    "codec.decode",
    "compile.total",
    "sim.inproc",
];
const PING: u8 = 3;
const CACHE_GET: u8 = 4;
const ENCODE: u8 = 5;
const DECODE: u8 = 6;
const COMPILE: u8 = 7;
const INPROC: u8 = 8;

/// Times `f` as one root span named `name`; returns its result and ms.
fn timed<T>(tr: &mut Tracer, name: u8, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.open(name, 0);
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.close(span);
    (out, ms)
}

/// The traced run: pings, a closed-loop load over half the run, then the
/// layers timed one call at a time from outside.
pub fn traced(args: &Args, report: &mut Report) {
    let mut s = match setup() {
        Ok(s) => s,
        Err(e) => return report.fail(e),
    };
    let mut tr = Tracer::new(&SPAN_NAMES);
    let compiler = s.server.supervisor().compiler().clone();
    let fuse = compiler.fuse_options();
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

    let mut ping = Vec::new();
    for token in 0..40u64 {
        let (r, ms) = timed(&mut tr, PING, || s.clients[0].ping(token));
        report.check_quiet(r.ok() == Some(token));
        ping.push(ms);
    }
    report.metric("serve.ping_ms", None, median(&ping), "ms");

    let before = s.server.stats();
    let l = load(&mut s, args.seed, args.seconds / 2.0);
    let after = s.server.stats();
    report.ops(
        l.reqs.len() as u64,
        l.reqs.iter().filter(|r| !r.ok).count() as u64,
    );
    for r in &l.reqs {
        let start = tr.at(r.start);
        tr.record(r.kind as u8, start, start + (r.ms * 1e6) as u64);
    }
    let warm: Vec<&Req> = l.reqs.iter().filter(|r| r.kind == WARM && r.ok).collect();
    let job: Vec<f64> = warm.iter().filter_map(|r| r.job_ms).collect();
    let wire: Vec<f64> = warm
        .iter()
        .filter_map(|r| r.job_ms.map(|j| r.ms - j))
        .collect();
    report.metric("serve.job_ms", None, median(&job), "ms");
    report.metric("serve.wire_ms", None, median(&wire), "ms");
    let bytes =
        (after.bytes_sent + after.bytes_received) - (before.bytes_sent + before.bytes_received);
    report.metric(
        "serve.bytes_per_req",
        None,
        bytes as f64 / l.reqs.len() as f64,
        "B",
    );
    report.metric(
        "serve.queue_high_water",
        None,
        after.queue_high_water as f64,
        "count",
    );
    if let Some(c) = &after.cache {
        report.metric(
            "cache.hit_ratio",
            None,
            c.hits as f64 / (c.hits + c.misses) as f64,
            "ratio",
        );
    }

    // Compile passes of every cold request, and the outer compile time
    // of the kept cold circuits on an uncached twin.
    let cold: Vec<[f64; 7]> = l.reqs.iter().filter_map(|r| r.passes).collect();
    for (i, pass) in Pass::ALL.iter().enumerate() {
        let ms: Vec<f64> = cold.iter().map(|p| p[i]).collect();
        report.metric(
            &format!("compile.{}_ms", pass.name()),
            None,
            median(&ms),
            "ms",
        );
    }
    let twin = uncached_twin(&compiler);
    let kept_cold: Vec<&(Circuit, CompileArtifact)> = l
        .kept
        .iter()
        .flat_map(|k| k.cold.iter().chain(&k.recent))
        .collect();
    let mut total = Vec::new();
    let mut fused = Vec::new();
    for (c, _) in &kept_cold {
        let (a, ms) = timed(&mut tr, COMPILE, || twin.compile(c));
        report.check_quiet(a.is_ok());
        if let Ok(a) = a {
            fused.push(crate::traj::fused_ops(&a) as f64);
        }
        total.push(ms);
    }
    report.metric("compile.total_ms", None, median(&total), "ms");
    report.metric(
        "compile.fused_ops.mixed_radix",
        None,
        median(&fused),
        "count",
    );

    // Codec on the served cold artifacts.
    let (mut enc, mut dec, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    for (_, a) in &kept_cold {
        let (bytes, ms) = timed(&mut tr, ENCODE, || encode_to_vec(a));
        enc.push(ms);
        kib.push(bytes.len() as f64 / 1024.0);
        let (back, ms) = timed(&mut tr, DECODE, || {
            decode_from_slice::<CompileArtifact>(&bytes)
        });
        report.check_quiet(back.is_ok());
        dec.push(ms);
    }
    report.metric("codec.encode_ms", None, median(&enc), "ms");
    report.metric("codec.decode_ms", None, median(&dec), "ms");
    report.metric("codec.artifact_kib", None, median(&kib), "KiB");

    // Cache lookups of the warm set, from outside (after the hit ratio
    // was read: these lookups count as hits too).
    let cache = compiler
        .artifact_cache()
        .expect("the server attaches a cache");
    let fp = compiler.fingerprint();
    let mut get = Vec::new();
    for i in 0..200 {
        let hash = content_hash(&s.warm[i % s.warm.len()]);
        let (hit, ms) = timed(&mut tr, CACHE_GET, || cache.get(hash, fp));
        report.check_quiet(hit.is_some());
        get.push(ms * 1e3);
    }
    report.metric("cache.get_us", None, median(&get), "us");

    // The kept simulate requests, in process: same artifact, seed, count.
    let mut inproc = Vec::new();
    let a = &s.warm_artifacts[SIM_ARTIFACT];
    for (seed, _) in l.kept.iter().flat_map(|k| &k.sims) {
        let (_, ms) = timed(&mut tr, INPROC, || {
            a.simulate()
                .with_seed(*seed)
                .with_pool(TrajectoryPool::global())
                .fidelity_samples(SIM_TRAJECTORIES)
        });
        inproc.push(ms);
    }
    report.metric("serve.sim_inproc_ms", None, median(&inproc), "ms");
    report.note(format!("requests in the traced load: {}", l.reqs.len()));

    if let Some(dir) = &args.trace_out {
        let file = format!("serve-mixed-seed{}.spans.tsv", args.seed);
        match trace::write_all(dir, &file, &[("serve".to_string(), &tr)]) {
            Ok(p) => report.note(format!("spans written to {}", p.display())),
            Err(e) => report.fail(format!("writing spans: {e}")),
        }
    }
    drop(s.clients);
    s.server.shutdown();
}
