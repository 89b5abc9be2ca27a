//! In-memory spans around every call into product code.
//!
//! A span records a name, a scenario class, start and end (nanoseconds
//! since the collector was enabled), the op it belongs to, the span that
//! caused it, and counts taken at the same boundary. Spans live in memory
//! and are written out once, when the run ends. With the collector
//! disabled (the untraced run that yields the end-to-end metrics) `enter`
//! and `finish` are one relaxed load each and read no clock.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc;

/// Named counts attached to a span (fixed size: recording a span must not
/// allocate, or it would perturb the allocation counts it reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pairs: [(&'static str, u64); Counts::MAX],
    len: usize,
}

impl Counts {
    const MAX: usize = 6;

    /// No counts.
    pub fn none() -> Self {
        Counts::default()
    }

    /// Add one named count (at most six per span).
    pub fn with(mut self, key: &'static str, value: u64) -> Self {
        assert!(self.len < Counts::MAX, "too many counts on one span");
        self.pairs[self.len] = (key, value);
        self.len += 1;
        self
    }

    /// Look a count up by name (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| v)
    }

    /// The recorded pairs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.pairs[..self.len].iter().copied()
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the run (never 0).
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// The op all spans of one benchmark operation share (0 = outside ops).
    pub op: u32,
    /// `<crate>.<function>` of the product call the span wraps.
    pub name: &'static str,
    /// Scenario class (`two_party`, `competition`, `multiparty`) or `""`.
    pub class: &'static str,
    /// Start, nanoseconds since the collector was enabled.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Heap allocations made by the recording thread inside the span.
    pub allocs: u64,
    /// Counts taken at the boundary.
    pub counts: Counts,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: the op it belongs to and its parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    /// Shared op identifier (0 = outside ops).
    pub op: u32,
    /// Parent span id (0 = none).
    pub parent: u32,
}

impl Ctx {
    /// A root context for op `op`.
    pub fn op(op: u32) -> Ctx {
        Ctx { op, parent: 0 }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off. Enabling reserves the buffer up front so
/// pushes inside spans do not allocate.
pub fn set_enabled(on: bool) {
    if on {
        now_ns();
        SPANS
            .lock()
            .expect("span buffer poisoned by a panicking op")
            .reserve(1 << 16);
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; call [`Guard::finish`] to record it.
#[must_use = "a span is recorded only by finish()"]
pub struct Guard {
    /// 0 when recording is off.
    id: u32,
    ctx: Ctx,
    name: &'static str,
    class: &'static str,
    start_ns: u64,
    allocs0: u64,
}

/// Open a span under `ctx`.
pub fn enter(ctx: Ctx, name: &'static str, class: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            ctx,
            name,
            class,
            start_ns: 0,
            allocs0: 0,
        };
    }
    Guard {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        ctx,
        name,
        class,
        allocs0: alloc::local(),
        start_ns: now_ns(),
    }
}

impl Guard {
    /// Context for spans caused by this one (usable from other threads).
    pub fn ctx(&self) -> Ctx {
        Ctx {
            op: self.ctx.op,
            parent: if self.id == 0 {
                self.ctx.parent
            } else {
                self.id
            },
        }
    }

    /// Close the span and record it with `counts`.
    pub fn finish(self, counts: Counts) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let allocs = alloc::local() - self.allocs0;
        SPANS
            .lock()
            .expect("span buffer poisoned by a panicking op")
            .push(Span {
                id: self.id,
                parent: self.ctx.parent,
                op: self.ctx.op,
                name: self.name,
                class: self.class,
                start_ns: self.start_ns,
                end_ns,
                allocs,
                counts,
            });
    }
}

/// Take every recorded span, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer poisoned by a panicking op"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Nanoseconds of `parent`'s interval covered by at least one child.
fn covered_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for &(start, end) in children.iter() {
        let (start, end) = (start.max(reach), end.min(parent.end_ns));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children running in parallel on worker
/// threads overlap, so their union is taken, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| match kids.get_mut(&s.id) {
            Some(children) => s.dur_ns() - covered_ns(s, children),
            None => s.dur_ns(),
        })
        .collect()
}

/// Check that parent and child times reconcile: every child lies inside
/// its parent's interval, so the time children cover never exceeds the
/// parent's duration. Returns the number of parent/child pairs checked.
pub fn reconcile(spans: &[Span]) -> Result<usize, String> {
    let by_id: std::collections::BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut pairs = 0;
    for child in spans.iter().filter(|s| s.parent != 0) {
        let parent = by_id.get(&child.parent).ok_or_else(|| {
            format!(
                "span {} ({}) has no parent {}",
                child.id, child.name, child.parent
            )
        })?;
        if child.start_ns < parent.start_ns || child.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) [{}..{}] escapes its parent {} ({}) [{}..{}]",
                child.id,
                child.name,
                child.start_ns,
                child.end_ns,
                parent.id,
                parent.name,
                parent.start_ns,
                parent.end_ns
            ));
        }
        pairs += 1;
    }
    Ok(pairs)
}

/// One JSON object per span, one per line (the `spans.jsonl` artifact).
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"class\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{}",
            s.id, s.parent, s.op, s.name, s.class, s.start_ns, s.end_ns, self_ns, s.allocs
        )
        .expect("writing to a String cannot fail");
        for (k, v) in s.counts.iter() {
            write!(out, ",\"{k}\":{v}").expect("writing to a String cannot fail");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            class: "",
            start_ns,
            end_ns,
            allocs: 0,
            counts: Counts::none(),
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        assert_eq!(reconcile(&spans), Ok(3));
    }

    #[test]
    fn parallel_children_count_their_union_once() {
        // Two workers overlap on [20, 40): the parent is covered for 50 ns,
        // not for 30 + 40.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 20, 60)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn reconcile_rejects_a_child_that_escapes_its_parent() {
        let spans = vec![span(1, 0, 10, 50), span(2, 1, 40, 60)];
        assert!(reconcile(&spans).unwrap_err().contains("escapes"));
        let orphan = vec![span(2, 9, 0, 1)];
        assert!(reconcile(&orphan).unwrap_err().contains("no parent"));
    }

    #[test]
    fn counts_are_looked_up_by_name() {
        let c = Counts::none().with("events", 7).with("bytes", 9);
        assert_eq!(c.get("events"), 7);
        assert_eq!(c.get("bytes"), 9);
        assert_eq!(c.get("windows"), 0);
        let line = to_jsonl(&[Span {
            counts: c,
            ..span(1, 0, 5, 8)
        }]);
        assert_eq!(
            line,
            "{\"id\":1,\"parent\":0,\"op\":1,\"name\":\"t\",\"class\":\"\",\"start_ns\":5,\"end_ns\":8,\"self_ns\":3,\"allocs\":0,\"events\":7,\"bytes\":9}\n"
        );
    }
}
