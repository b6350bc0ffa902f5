//! Spans of the traced lap: recorded from benchmark code only, kept in
//! memory, written out when the lap ends.
//!
//! A `top` span covers one top-level call; a `core` span covers one
//! `AllocatorCore` method seen by the [`ProbeCore`](crate::probe::ProbeCore)
//! wrapper. The benchmark is single-threaded, so a core span's parent is
//! the top span whose interval contains it.

use std::io::Write;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Alloc,
    /// An allocation the quota model expects to be refused.
    Refused,
    Free,
    Boundary,
    Offer,
    Depart,
    Step,
    /// Core-side calls other than alloc/free/boundary (`process_events`,
    /// `release_cached`, `compact`, `stats`, ...).
    Maintenance,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Alloc => "alloc",
            Kind::Refused => "refused",
            Kind::Free => "free",
            Kind::Boundary => "boundary",
            Kind::Offer => "offer",
            Kind::Depart => "depart",
            Kind::Step => "step",
            Kind::Maintenance => "maintenance",
        }
    }
}

/// One recorded interval, in nanoseconds since the lap's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Index of the top span containing each core span (`None` for a core call
/// made outside any top-level call, e.g. during teardown). Both lists are
/// in time order.
pub fn parents(top: &[Span], core: &[Span]) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(core.len());
    let mut t = 0;
    for c in core {
        while t < top.len() && top[t].end_ns < c.start_ns {
            t += 1;
        }
        let inside = t < top.len() && top[t].start_ns <= c.start_ns && c.end_ns <= top[t].end_ns;
        out.push(inside.then_some(t));
    }
    out
}

/// Self time of each top span: its duration minus the part its child core
/// spans cover.
pub fn self_times(top: &[Span], core: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = top.iter().map(Span::duration).collect();
    for (c, parent) in core.iter().zip(parents(top, core)) {
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(c.duration());
        }
    }
    own
}

/// Most spans of one layer written to a spans file; the serving lap records
/// millions and the head of the steady section is what a reader inspects.
const MAX_WRITTEN: usize = 100_000;

/// Writes `top` and `core` spans as one JSON document.
pub fn write(
    path: &std::path::Path,
    workload: &str,
    top: &[Span],
    core: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"top_spans\": {}, \"core_spans\": {}, \"written_per_layer\": {MAX_WRITTEN},",
        top.len(),
        core.len()
    )?;
    let parent = parents(top, core);
    writeln!(w, "\"spans\": [")?;
    let mut first = true;
    let mut emit = |w: &mut std::io::BufWriter<std::fs::File>,
                    layer: &str,
                    id: usize,
                    s: &Span,
                    parent: Option<usize>|
     -> std::io::Result<()> {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        let parent = parent.map_or("null".to_owned(), |p| format!("\"top-{p}\""));
        write!(
            w,
            "{{\"id\": \"{layer}-{id}\", \"name\": \"{layer}.{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.kind.label(),
            s.start_ns,
            s.end_ns
        )
    };
    for (i, s) in top.iter().enumerate().take(MAX_WRITTEN) {
        emit(&mut w, "top", i, s, None)?;
    }
    for (i, s) in core.iter().enumerate().take(MAX_WRITTEN) {
        emit(&mut w, "core", i, s, parent[i])?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let top = [
            span(Kind::Alloc, 0, 100),
            span(Kind::Free, 120, 150),
            span(Kind::Alloc, 200, 260),
        ];
        let core = [
            span(Kind::Alloc, 10, 70),
            span(Kind::Maintenance, 75, 85),
            // The second top call is absorbed above the core: no child.
            span(Kind::Alloc, 210, 250),
            // A teardown call outside every top span has no parent.
            span(Kind::Free, 300, 310),
        ];
        assert_eq!(parents(&top, &core), vec![Some(0), Some(0), Some(2), None]);
        assert_eq!(self_times(&top, &core), vec![30, 30, 20]);
    }

    #[test]
    fn self_times_sum_with_children_to_the_top_durations() {
        let top = [span(Kind::Step, 5, 50), span(Kind::Alloc, 60, 61)];
        let core = [
            span(Kind::Maintenance, 6, 20),
            span(Kind::Maintenance, 20, 49),
        ];
        let own: u64 = self_times(&top, &core).iter().sum();
        let children: u64 = core.iter().map(Span::duration).sum();
        let total: u64 = top.iter().map(Span::duration).sum();
        assert_eq!(own + children, total);
    }
}
