//! A host-speed reference: a fixed unit of work owned by this benchmark,
//! timed next to the measured work.
//!
//! The machines this benchmark runs on change speed under it: on the
//! 2-core host it was written on, a pure compute loop swings between
//! ~18 ms and ~28 ms per 1 s window, and the trajectory rates drift by up
//! to half over a few minutes. The trajectory workloads therefore report
//! their rates and latencies relative to this reference ("normalized to
//! the nominal host"): each batch's latency is divided by the host
//! factor around the time it ran, `factor = reference time / NOMINAL_NS`,
//! and rates are computed from the normalized latencies. The reference
//! runs on threads of its own and calls nothing from the program under
//! test, so no change to the program can move it. Raw values are printed
//! too.

use std::time::Instant;

/// Nanoseconds one reference unit is taken to last on the nominal host.
pub const NOMINAL_NS: f64 = 1.0e6;

/// Complex amplitudes in the reference buffer (64 KiB).
const AMPS: usize = 4096;
/// Rotation passes over the buffer per unit.
const PASSES: usize = 256;

/// One unit: `PASSES` phase rotations over the buffer — the arithmetic
/// shape of a diagonal sweep. Returns its wall time in ns.
fn unit(buf: &mut [(f64, f64)], salt: usize) -> f64 {
    let t = Instant::now();
    for pass in 0..PASSES {
        let angle = 1e-3 * (pass + salt) as f64;
        let (c, s) = (angle.cos(), angle.sin());
        for z in buf.iter_mut() {
            *z = (z.0 * c - z.1 * s, z.0 * s + z.1 * c);
        }
    }
    std::hint::black_box(&*buf);
    t.elapsed().as_nanos() as f64
}

/// Runs one unit on each of `threads` threads at once (the calling
/// thread is one of them) and returns the mean unit time in ns.
pub fn sample(threads: usize) -> f64 {
    let run = |salt: usize| unit(&mut vec![(1.0, 0.0); AMPS], salt);
    let total: f64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|i| scope.spawn(move || run(i))).collect();
        let mine = run(0);
        mine + others
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum::<f64>()
    });
    total / threads.max(1) as f64
}

/// The host factor from `samples` unit times: their median over
/// `NOMINAL_NS`.
pub fn factor(samples: &[f64]) -> f64 {
    crate::report::median(samples) / NOMINAL_NS
}

/// Per sample `i`, the host factor of the samples within `half` places of
/// it: a rolling median that follows the host's speed episodes while
/// smoothing the noise of single samples.
pub fn rolling_factors(samples: &[f64], half: usize) -> Vec<f64> {
    (0..samples.len())
        .map(|i| factor(&samples[i.saturating_sub(half)..(i + half + 1).min(samples.len())]))
        .collect()
}
