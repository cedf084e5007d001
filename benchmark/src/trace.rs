//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! library's public functions, kept in memory, and written out as one
//! tab-separated file when the run ends. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `trace` groups the spans of one trajectory or one
/// request.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: u8,
    pub parent: u32,
    pub trace: u32,
    pub start: u64,
    pub end: u64,
}

/// A span recorder over a fixed table of span names.
pub struct Tracer {
    epoch: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(names: &'static [&'static str]) -> Self {
        Tracer {
            epoch: Instant::now(),
            names,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's creation to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished root span with explicit times.
    pub fn record(&mut self, name: u8, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            parent: ROOT,
            trace: self.spans.len() as u32,
            start,
            end,
        });
    }

    /// Opens a root span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: u8, trace: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: ROOT,
            trace,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end = end;
    }

    /// Records a child span of `parent` that started at `start` (a value
    /// of [`Tracer::now`]) and ends now.
    #[inline]
    pub fn child(&mut self, name: u8, parent: u32, start: u64) {
        let end = self.now();
        let trace = self.spans[parent as usize].trace;
        self.spans.push(Span {
            name,
            parent,
            trace,
            start,
            end,
        });
    }

    /// Per span name: (total self time in ns, span count).
    pub fn self_times(&self) -> Vec<(u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = vec![(0u64, 0u64); self.names.len()];
        for (s, c) in self.spans.iter().zip(&covered) {
            let slot = &mut out[s.name as usize];
            slot.0 += (s.end - s.start).saturating_sub(*c);
            slot.1 += 1;
        }
        out
    }

    /// Total duration of all root spans, in ns.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Appends every span as one tab-separated line tagged with `label`.
    pub fn write_to(&self, out: &mut impl Write, label: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{label}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.trace, self.names[s.name as usize], s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Writes the spans of every tracer into `dir/<file>`, one header line
/// first. Returns the path written.
pub fn write_all(
    dir: &Path,
    file: &str,
    tracers: &[(String, &Tracer)],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "label\ttrace\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (label, tracer) in tracers {
        tracer.write_to(&mut out, label)?;
    }
    out.flush()?;
    Ok(path)
}
