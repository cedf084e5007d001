//! A traced mirror of the simulator's trajectory loop, built from public
//! calls only.
//!
//! It replays `trajectory::run_ops` step for step — initial state,
//! memoized ideal run, then per op: exact-idle damping, the kernel apply,
//! busy damping and the depolarizing draw, with fused blocks replaying
//! their noise per constituent pulse — and wraps each public call in a
//! span. Each trajectory's RNG is seeded exactly as the library seeds
//! it, so the mirror's samples must equal the untraced estimator's bit
//! for bit; the traced run checks that, otherwise the trace would measure
//! a different program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use waltz_core::CompiledCircuit;
use waltz_noise::{pauli, CoherenceModel, NoiseModel, PauliOp};
use waltz_sim::sparse::SparsePolicy;
use waltz_sim::{
    ideal, AdaptiveState, GateKernel, Register, SegmentedCircuit, SparseState, State, TimedCircuit,
    TimedOp, Workspace,
};

use crate::trace::Tracer;

/// Span names of the mirror, indexed by the constants below.
pub const NAMES: [&str; 14] = [
    "sim.traj",
    "sim.init",
    "sim.ideal",
    "sim.apply.identity",
    "sim.apply.diagonal",
    "sim.apply.permutation",
    "sim.apply.single_qudit",
    "sim.apply.two_qudit",
    "sim.apply.general_dense",
    "sim.damp_idle",
    "sim.damp_busy",
    "sim.depol",
    "sim.reshape",
    "sim.fidelity",
];
pub const TRAJ: u8 = 0;
pub const INIT: u8 = 1;
pub const IDEAL: u8 = 2;
pub const APPLY_FIRST: u8 = 3;
pub const APPLY_LAST: u8 = 8;
pub const DAMP_IDLE: u8 = 9;
pub const DAMP_BUSY: u8 = 10;
pub const DEPOL: u8 = 11;
pub const RESHAPE: u8 = 12;
pub const FIDELITY: u8 = 13;

fn apply_span(kernel: &GateKernel) -> u8 {
    APPLY_FIRST
        + match kernel {
            GateKernel::Identity => 0,
            GateKernel::Diagonal { .. } => 1,
            GateKernel::Permutation { .. } => 2,
            GateKernel::SingleQudit => 3,
            GateKernel::TwoQudit => 4,
            GateKernel::GeneralDense => 5,
        }
}

/// Seed of the trajectory with global index `g`, as the library derives
/// it (`trajectory_seed` in `waltz_sim::trajectory`).
pub fn trajectory_seed(seed: u64, g: usize) -> u64 {
    seed.wrapping_add(g as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Counters the mirror keeps next to its spans.
#[derive(Default, Debug, Clone)]
pub struct Counts {
    pub trajectories: u64,
    pub apply_calls: u64,
    pub damp_calls: u64,
    pub depol_errors: u64,
    pub nnz_peak: usize,
    pub bytes_peak: usize,
    pub densified: u64,
}

/// The state operations the noisy loop needs, over dense and adaptive
/// states alike.
trait Noisy {
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace);
    fn apply_pauli(&mut self, op: PauliOp, q: usize);
    fn damp(&mut self, m: &CoherenceModel, q: usize, dt: f64, rng: &mut StdRng, ws: &mut Workspace);
    fn remap(&mut self, register: &Register);
    fn reshape_into_lossy(&self, out: &mut Self, ws: &mut Workspace) -> f64;
    fn is_dense(&self) -> bool;
}

impl Noisy for State {
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        State::apply_op(self, op, ws)
    }
    fn apply_pauli(&mut self, op: PauliOp, q: usize) {
        State::apply_pauli(self, op, q)
    }
    fn damp(
        &mut self,
        m: &CoherenceModel,
        q: usize,
        dt: f64,
        rng: &mut StdRng,
        ws: &mut Workspace,
    ) {
        self.damping_step_with(m, q, dt, rng, ws)
    }
    fn remap(&mut self, register: &Register) {
        State::remap(self, register)
    }
    fn reshape_into_lossy(&self, out: &mut Self, _ws: &mut Workspace) -> f64 {
        State::reshape_into_lossy(self, out)
    }
    fn is_dense(&self) -> bool {
        true
    }
}

impl Noisy for AdaptiveState {
    fn apply_op(&mut self, op: &TimedOp, ws: &mut Workspace) {
        AdaptiveState::apply_op(self, op, ws)
    }
    fn apply_pauli(&mut self, op: PauliOp, q: usize) {
        AdaptiveState::apply_pauli(self, op, q)
    }
    fn damp(
        &mut self,
        m: &CoherenceModel,
        q: usize,
        dt: f64,
        rng: &mut StdRng,
        ws: &mut Workspace,
    ) {
        self.damping_step_with(m, q, dt, rng, ws)
    }
    fn remap(&mut self, register: &Register) {
        AdaptiveState::remap(self, register)
    }
    fn reshape_into_lossy(&self, out: &mut Self, ws: &mut Workspace) -> f64 {
        AdaptiveState::reshape_into_lossy(self, out, ws)
    }
    fn is_dense(&self) -> bool {
        AdaptiveState::is_dense(self)
    }
}

/// The schedule a compiled program simulates: its windowed segments when
/// the compiler produced them, else the one fused whole-program circuit.
pub struct Program<'a> {
    whole: &'a TimedCircuit,
    segmented: Option<&'a SegmentedCircuit>,
}

impl<'a> Program<'a> {
    pub fn of(compiled: &'a CompiledCircuit) -> Self {
        Program {
            whole: compiled.sim_circuit(),
            segmented: compiled.sim_segments(),
        }
    }

    pub fn segments(&self) -> &'a [TimedCircuit] {
        match self.segmented {
            Some(s) => &s.segments,
            None => std::slice::from_ref(self.whole),
        }
    }

    pub fn first_register(&self) -> &'a Register {
        &self.segments()[0].register
    }

    fn total_duration_ns(&self) -> f64 {
        match self.segmented {
            Some(s) => s.total_duration_ns,
            None => self.whole.total_duration_ns,
        }
    }
}

/// One traced trajectory engine: the buffers a library pool worker owns,
/// plus the mirror's own per-device busy timeline.
struct Buffers<I, S> {
    ws: Workspace,
    initial: I,
    cached_initial: I,
    ideal_cached: bool,
    ideal_out: S,
    ideal_scratch: S,
    out: S,
    scratch: S,
    free_at: Vec<f64>,
}

/// Runs `n` traced trajectories on the dense engine — the path of
/// `Simulation::fidelity_samples` when `write_initial` writes random
/// logical product inputs and `ws` is `Workspace::serial()`. Returns the
/// per-trajectory fidelities.
#[allow(clippy::too_many_arguments)]
pub fn dense(
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    n: usize,
    seed: u64,
    write_initial: impl Fn(&mut StdRng, &mut State),
    ws: Workspace,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Vec<f64> {
    let prog = Program::of(compiled);
    let first = prog.first_register();
    let (out, scratch) = match prog.segmented {
        Some(s) => s.rolling_buffers(),
        None => (State::zero(first), State::zero(first)),
    };
    let (ideal_out, ideal_scratch) = (out.clone(), scratch.clone());
    let mut b = Buffers {
        ws,
        initial: State::zero(first),
        cached_initial: State::zero(first),
        ideal_cached: false,
        ideal_out,
        ideal_scratch,
        out,
        scratch,
        free_at: Vec::new(),
    };
    (0..n)
        .map(|g| {
            let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, g));
            let root = tr.open(TRAJ, g as u32);
            let t = tr.now();
            write_initial(&mut rng, &mut b.initial);
            tr.child(INIT, root, t);
            let t = tr.now();
            if !(b.ideal_cached && b.cached_initial == b.initial) {
                match prog.segmented {
                    Some(s) => ideal::run_segmented_into(
                        s,
                        &b.initial,
                        &mut b.ideal_out,
                        &mut b.ideal_scratch,
                        &mut b.ws,
                    ),
                    None => ideal::run_into(prog.whole, &b.initial, &mut b.ideal_out, &mut b.ws),
                }
                b.cached_initial.copy_from(&b.initial);
                b.ideal_cached = true;
                tr.child(IDEAL, root, t);
            }
            let t = tr.now();
            if prog.segmented.is_some() {
                b.out.remap(first);
            }
            b.out.copy_from(&b.initial);
            tr.child(INIT, root, t);
            noisy(&prog, noise, &mut rng, &mut b, tr, root, counts);
            let t = tr.now();
            let f = b.ideal_out.fidelity(&b.out);
            tr.child(FIDELITY, root, t);
            tr.close(root);
            counts.trajectories += 1;
            f
        })
        .collect()
}

/// Runs `n` traced trajectories from the basis input `|0...0>` on the
/// density-adaptive engine — the path of
/// `trajectory::average_fidelity{,_segmented}_adaptive_with_on`.
pub fn adaptive_basis(
    compiled: &CompiledCircuit,
    noise: &NoiseModel,
    policy: &SparsePolicy,
    n: usize,
    seed: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Vec<f64> {
    let prog = Program::of(compiled);
    let first = prog.first_register();
    let mut ws = Workspace::serial();
    ws.set_sparse_density_threshold(policy.density_threshold);
    ws.set_sparse_epsilon(policy.epsilon);
    let mut b = Buffers {
        ws,
        initial: SparseState::zero(first),
        cached_initial: SparseState::zero(first),
        ideal_cached: false,
        ideal_out: AdaptiveState::zero(first),
        ideal_scratch: AdaptiveState::zero(first),
        out: AdaptiveState::zero(first),
        scratch: AdaptiveState::zero(first),
        free_at: Vec::new(),
    };
    (0..n)
        .map(|g| {
            let mut rng = StdRng::seed_from_u64(trajectory_seed(seed, g));
            let root = tr.open(TRAJ, g as u32);
            let t = tr.now();
            b.initial.fill_basis(0);
            tr.child(INIT, root, t);
            let t = tr.now();
            if !(b.ideal_cached && b.cached_initial == b.initial) {
                match prog.segmented {
                    Some(s) => ideal::run_segmented_adaptive_into(
                        s,
                        &b.initial,
                        &mut b.ideal_out,
                        &mut b.ideal_scratch,
                        &mut b.ws,
                    ),
                    None => ideal::run_adaptive_into(
                        prog.whole,
                        &b.initial,
                        &mut b.ideal_out,
                        &mut b.ws,
                    ),
                }
                b.cached_initial.copy_from(&b.initial);
                b.ideal_cached = true;
                tr.child(IDEAL, root, t);
            }
            let t = tr.now();
            b.out.reset_from_sparse(&b.initial, &mut b.ws);
            tr.child(INIT, root, t);
            let mut densified = b.out.is_dense();
            densified |= noisy(&prog, noise, &mut rng, &mut b, tr, root, counts);
            let t = tr.now();
            let f = b.ideal_out.fidelity(&b.out);
            tr.child(FIDELITY, root, t);
            tr.close(root);
            counts.trajectories += 1;
            counts.densified += u64::from(densified);
            counts.nnz_peak = counts.nnz_peak.max(b.out.peak_nnz());
            counts.bytes_peak = counts.bytes_peak.max(b.out.peak_state_bytes());
            f
        })
        .collect()
}

/// The noisy part of one trajectory (`run_trajectory{,_segmented}_into`
/// and `run_ops`), traced. Returns whether the state was dense after any
/// apply or reshape.
fn noisy<I, S: Noisy>(
    prog: &Program,
    noise: &NoiseModel,
    rng: &mut StdRng,
    b: &mut Buffers<I, S>,
    tr: &mut Tracer,
    root: u32,
    counts: &mut Counts,
) -> bool {
    let m = &noise.coherence;
    let damping = noise.damping;
    let busy = noise.damping && noise.busy_time_damping;
    let n_qudits = prog.first_register().n_qudits();
    let mut densified = false;
    b.free_at.clear();
    b.free_at.resize(n_qudits, 0.0);
    for (k, segment) in prog.segments().iter().enumerate() {
        if k > 0 {
            let t = tr.now();
            b.scratch.remap(&segment.register);
            let _leaked = b.out.reshape_into_lossy(&mut b.scratch, &mut b.ws);
            std::mem::swap(&mut b.out, &mut b.scratch);
            tr.child(RESHAPE, root, t);
            densified |= b.out.is_dense();
        }
        for op in &segment.ops {
            match &op.noise_events {
                None => {
                    if damping {
                        for &q in &op.operands {
                            let idle = op.start_ns - b.free_at[q];
                            if idle > 0.0 {
                                let t = tr.now();
                                b.out.damp(m, q, idle, rng, &mut b.ws);
                                tr.child(DAMP_IDLE, root, t);
                                counts.damp_calls += 1;
                            }
                        }
                    }
                    let t = tr.now();
                    b.out.apply_op(op, &mut b.ws);
                    tr.child(apply_span(&op.kernel), root, t);
                    counts.apply_calls += 1;
                    densified |= b.out.is_dense();
                    if busy {
                        for &q in &op.operands {
                            let t = tr.now();
                            b.out.damp(m, q, op.duration_ns, rng, &mut b.ws);
                            tr.child(DAMP_BUSY, root, t);
                            counts.damp_calls += 1;
                        }
                    }
                    if noise.depolarizing && op.fidelity < 1.0 {
                        let t = tr.now();
                        if rng.gen::<f64>() > op.fidelity {
                            let err = pauli::sample_error(&op.error_dims, rng);
                            for (p, &q) in err.iter().zip(op.operands.iter()) {
                                b.out.apply_pauli(*p, q);
                            }
                            counts.depol_errors += 1;
                        }
                        tr.child(DEPOL, root, t);
                    }
                    for &q in &op.operands {
                        b.free_at[q] = op.end_ns();
                    }
                }
                Some(events) => {
                    for ev in events {
                        for &q in &ev.operands {
                            let idle = ev.start_ns - b.free_at[q];
                            if damping && idle > 0.0 {
                                let t = tr.now();
                                b.out.damp(m, q, idle, rng, &mut b.ws);
                                tr.child(DAMP_IDLE, root, t);
                                counts.damp_calls += 1;
                            }
                            b.free_at[q] = ev.end_ns();
                        }
                    }
                    let t = tr.now();
                    b.out.apply_op(op, &mut b.ws);
                    tr.child(apply_span(&op.kernel), root, t);
                    counts.apply_calls += 1;
                    densified |= b.out.is_dense();
                    for ev in events {
                        if busy {
                            for &q in &ev.operands {
                                let t = tr.now();
                                b.out.damp(m, q, ev.duration_ns, rng, &mut b.ws);
                                tr.child(DAMP_BUSY, root, t);
                                counts.damp_calls += 1;
                            }
                        }
                        if noise.depolarizing && ev.fidelity < 1.0 {
                            let t = tr.now();
                            if rng.gen::<f64>() > ev.fidelity {
                                let err = pauli::sample_error(&ev.error_dims, rng);
                                for (p, &q) in err.iter().zip(ev.operands.iter()) {
                                    b.out.apply_pauli(*p, q);
                                }
                                counts.depol_errors += 1;
                            }
                            tr.child(DEPOL, root, t);
                        }
                    }
                }
            }
        }
    }
    // Trailing idle until the program's wall-clock end.
    if damping {
        let end = prog.total_duration_ns();
        for q in 0..n_qudits {
            let idle = end - b.free_at[q];
            if idle > 0.0 {
                let t = tr.now();
                b.out.damp(m, q, idle, rng, &mut b.ws);
                tr.child(DAMP_IDLE, root, t);
                counts.damp_calls += 1;
            }
        }
    }
    densified
}
