//! Spans around the calls into each layer, recorded from the benchmark's
//! side of the boundary.
//!
//! One tracer per thread (every call into the program is made from the
//! main thread; the program's own worker threads are invisible here and
//! their time shows up inside the calling span). When tracing is off
//! `enter`/`exit` do not read the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a span with no enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the span list, or [`NO_PARENT`].
    pub parent: u32,
    pub rep: u32,
    pub epoch: u32,
    /// Allocator calls made inside the span while allocation counting was
    /// on (see `alloc.rs`); 0 otherwise.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
    epoch: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        rep: 0,
        epoch: 0,
    });
}

/// Handle returned by [`enter`]; pass it to [`exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Tag the spans that follow with a repetition and epoch id.
pub fn set_context(rep: u32, epoch: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.rep = rep;
        t.epoch = epoch;
    });
}

pub fn enter(name: &'static str) -> Open {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Open(NO_PARENT);
        }
        let id = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let (rep, epoch) = (t.rep, t.epoch);
        t.stack.push(id);
        t.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            rep,
            epoch,
            allocs: 0,
        });
        // Read the counter and the clock after the push, so that growing
        // the span list is charged to the enclosing span, not this one.
        let origin = t.origin;
        let span = &mut t.spans[id as usize];
        span.allocs = crate::alloc::calls();
        span.start_ns = origin.elapsed().as_nanos() as u64;
        Open(id)
    })
}

pub fn exit(open: Open) {
    if open.0 == NO_PARENT {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let span = &mut t.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.allocs = crate::alloc::calls() - span.allocs;
        let top = t.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
    });
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = enter(name);
    let out = f();
    exit(open);
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children never overlap each other (one thread, strictly
/// nested), so the covered time is their summed duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Inclusive seconds per repetition for each span name: `name -> one total
/// per rep`, reps in ascending order.
pub fn seconds_by_name_and_rep(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut sums: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for s in spans {
        *sums.entry((s.name, s.rep)).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _rep), ns) in sums {
        out.entry(name).or_default().push(ns as f64 / 1e9);
    }
    out
}

/// Share of the spans named `root` that their descendants account for, in
/// percent: 100 means every nanosecond of the loop sits inside a layer span.
pub fn coverage_pct(spans: &[Span], root: &'static str) -> f64 {
    let own = self_times_ns(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&own) {
        if s.name == root {
            total += s.dur_ns();
            uncovered += own_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * (total - uncovered) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, rep: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
            epoch: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span_at("rep", 0, 100, NO_PARENT, 0),
            span_at("serve.ingest", 10, 50, 0, 0),
            span_at("wal.append", 20, 30, 1, 0),
            span_at("serve.advance", 60, 90, 0, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 30]);
        assert_eq!(coverage_pct(&spans, "rep"), 70.0);
        assert_eq!(coverage_pct(&spans, "absent"), 0.0);
    }

    #[test]
    fn seconds_group_by_name_then_rep() {
        let spans = vec![
            span_at("a", 0, 1_000_000_000, NO_PARENT, 0),
            span_at("a", 0, 500_000_000, NO_PARENT, 0),
            span_at("a", 0, 2_000_000_000, NO_PARENT, 1),
            span_at("b", 0, 250_000_000, NO_PARENT, 1),
        ];
        let by = seconds_by_name_and_rep(&spans);
        assert_eq!(by["a"], vec![1.5, 2.0]);
        assert_eq!(by["b"], vec![0.25]);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        set_enabled(false);
        span("ignored", || ());
        assert!(drain().is_empty());

        set_enabled(true);
        set_context(3, 7);
        let outer = enter("outer");
        span("inner", || ());
        exit(outer);
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[1].rep, spans[1].epoch), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
