//! The benchmark's tracer: per-call meters filled by the decorators in
//! [`crate::wrap`], and spans recorded around the benchmark's own
//! calls into the program.
//!
//! Two levels of call-level boundaries are aggregated as
//! `(count, busy ns)` on the enclosing span instead of being spans of
//! their own (millions of protocol calls would swamp any span log):
//!
//! * **outer calls** — the benchmark's own calls into a driver or a
//!   library (`run_to`, `corrupt_all`, `ChaosHarness::advance`,
//!   `TrafficPlane::on_step`, …), timed by [`SpanRec::call`];
//! * **inner calls** — the program's calls through a public trait
//!   (`Protocol::receive`, `Medium::deliver_from`, `RoutingView::route`,
//!   …), timed by the decorators into [`Meters`].
//!
//! A meter cell is picked per thread: the thread that owns the meters
//! (the one running the span) writes slot 0, worker threads the driver
//! spawns (shard passes, actor workers) spread over the other slots.
//! The part of an outer call that inner calls *cover* is slot 0's busy
//! time plus the worker slots' busy time spread over the pool width —
//! workers run side by side while the owner waits — and the outer
//! call's self time is its busy time minus that.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// The inner calls the decorators time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `Protocol::receive`.
    Receive,
    /// `Protocol::update`.
    Update,
    /// `Protocol::beacon`, `beacon_into` and `beacon_changed`.
    Beacon,
    /// `Observable::output`.
    Output,
    /// `init`, `link_down` and `Corruptible::corrupt`.
    ProtocolOther,
    /// Every `Medium` delivery method.
    Deliver,
    /// `RoutingView::route` and `next_hop`.
    Lookup,
    /// `extract_clustering` inside a view factory.
    Extract,
    /// `HierarchicalRoutes::try_new` inside a view factory.
    Routes,
    /// The tracer's own beacon encoding for `radio.bytes_on_air`: not
    /// program work, so it is subtracted from self times.
    Encode,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 10;

/// The protocol calls.
pub const PROTOCOL: &[Call] = &[
    Call::Receive,
    Call::Update,
    Call::Beacon,
    Call::Output,
    Call::ProtocolOther,
];

/// Every inner call (all children of an outer call).
pub const INNER: &[Call] = &[
    Call::Receive,
    Call::Update,
    Call::Beacon,
    Call::Output,
    Call::ProtocolOther,
    Call::Deliver,
    Call::Lookup,
    Call::Extract,
    Call::Routes,
    Call::Encode,
];

impl Call {
    /// Stable name used in span logs.
    pub fn name(self) -> &'static str {
        match self {
            Call::Receive => "core.receive",
            Call::Update => "core.update",
            Call::Beacon => "core.beacon",
            Call::Output => "core.output",
            Call::ProtocolOther => "core.other",
            Call::Deliver => "radio.deliver",
            Call::Lookup => "core.lookup",
            Call::Extract => "core.extract",
            Call::Routes => "core.routes",
            Call::Encode => "trace.encode",
        }
    }
}

const SLOTS: usize = 4;

#[derive(Default)]
struct Cellm {
    count: AtomicU64,
    ns: AtomicU64,
}

#[derive(Default)]
#[repr(align(64))]
struct Slot {
    cells: [Cellm; CALLS],
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A small per-thread id (never 0), cheaper to read than `ThreadId`.
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

/// Per-call counters shared by every decorator of one traced driver,
/// plus the per-node beacon sizes the medium decorator charges to the
/// air.
pub struct Meters {
    owner: u64,
    /// Slot 0 for the owner; workers hash over the rest, so two
    /// workers rarely share a cache line.
    slots: [Slot; SLOTS],
    beacon_bytes: Vec<AtomicU32>,
    /// Bytes of every frame sent (sender's encoded beacon size).
    pub bytes_on_air: AtomicU64,
    /// Frame copies in range of a sender.
    pub frames_attempted: AtomicU64,
    /// Frame copies received.
    pub frames_delivered: AtomicU64,
    /// Frames sent (one per sender per delivery call).
    pub frames_sent: AtomicU64,
}

impl Meters {
    /// Meters for a driver of `nodes` nodes, owned by the calling
    /// thread.
    pub fn new(nodes: usize) -> Self {
        Meters {
            owner: tid(),
            slots: Default::default(),
            beacon_bytes: (0..nodes).map(|_| AtomicU32::new(0)).collect(),
            bytes_on_air: AtomicU64::new(0),
            frames_attempted: AtomicU64::new(0),
            frames_delivered: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
        }
    }

    fn slot(&self) -> &Slot {
        let t = tid();
        if t == self.owner {
            &self.slots[0]
        } else {
            &self.slots[1 + (t as usize % (SLOTS - 1))]
        }
    }

    /// Times `f` as one `call`.
    #[inline]
    pub fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let cell = &self.slot().cells[call as usize];
        cell.count.fetch_add(1, Relaxed);
        cell.ns.fetch_add(ns, Relaxed);
        r
    }

    /// Records the encoded size of `node`'s current beacon.
    pub fn set_beacon_bytes(&self, node: usize, bytes: usize) {
        if let Some(b) = self.beacon_bytes.get(node) {
            b.store(bytes as u32, Relaxed);
        }
    }

    /// Charges one frame of `node` to the air.
    pub fn send(&self, node: usize) {
        let bytes = self.beacon_bytes.get(node).map_or(0, |b| b.load(Relaxed));
        self.bytes_on_air.fetch_add(u64::from(bytes), Relaxed);
        self.frames_sent.fetch_add(1, Relaxed);
    }

    /// Reads every cell.
    pub fn snap(&self) -> Snap {
        let mut m = [[(0, 0); CALLS]; SLOTS];
        for (s, slot) in self.slots.iter().enumerate() {
            for (c, cell) in slot.cells.iter().enumerate() {
                m[s][c] = (cell.count.load(Relaxed), cell.ns.load(Relaxed));
            }
        }
        Snap { m }
    }
}

/// A reading of every meter cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Snap {
    m: [[(u64, u64); CALLS]; SLOTS],
}

impl Default for Snap {
    fn default() -> Self {
        Snap {
            m: [[(0, 0); CALLS]; SLOTS],
        }
    }
}

impl Snap {
    /// Cell-wise `self - earlier`.
    pub fn minus(&self, earlier: &Snap) -> Snap {
        let mut out = *self;
        for s in 0..SLOTS {
            for c in 0..CALLS {
                out.m[s][c].0 -= earlier.m[s][c].0;
                out.m[s][c].1 -= earlier.m[s][c].1;
            }
        }
        out
    }

    /// Cell-wise sum.
    pub fn add(&mut self, other: &Snap) {
        for s in 0..SLOTS {
            for c in 0..CALLS {
                self.m[s][c].0 += other.m[s][c].0;
                self.m[s][c].1 += other.m[s][c].1;
            }
        }
    }

    /// Calls of kind `call` on all threads.
    pub fn count(&self, call: Call) -> u64 {
        self.m.iter().map(|s| s[call as usize].0).sum()
    }

    /// Busy ns of `calls` summed over all threads (CPU time).
    pub fn busy(&self, calls: &[Call]) -> u64 {
        self.m
            .iter()
            .map(|s| calls.iter().map(|&c| s[c as usize].1).sum::<u64>())
            .sum()
    }

    /// Wall-clock ns of the enclosing interval that `calls` cover: the
    /// owner thread's busy time plus the worker threads' busy time
    /// divided by the pool width (`available_parallelism`, the width
    /// both the shard pass and the actor pool use), assuming balanced
    /// workers.
    pub fn covered(&self, calls: &[Call]) -> u64 {
        let per = |s: &[(u64, u64); CALLS]| calls.iter().map(|&c| s[c as usize].1).sum::<u64>();
        let workers: u64 = self.m[1..].iter().map(per).sum();
        per(&self.m[0]) + workers / pool_width()
    }
}

/// Worker threads the program runs side by side.
pub fn pool_width() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One outer call kind's aggregate on a span.
#[derive(Clone, Debug, Default)]
pub struct Outer {
    /// Calls made.
    pub count: u64,
    /// Wall ns inside the calls.
    pub busy_ns: u64,
    /// Inner calls made during them.
    pub inner: Snap,
}

impl Outer {
    /// Busy time not covered by inner calls.
    pub fn self_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.inner.covered(INNER))
    }
}

/// One recorded span: an operation of a workload (a recovery, a sweep
/// job, a certified cell, a traffic window), with its outer calls.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id (unique in the process).
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Recording thread.
    pub thread: u64,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Outer calls made inside the span, by name, in first-call order.
    pub calls: Vec<(&'static str, Outer)>,
}

static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn since_epoch(t: Instant) -> u64 {
    let mut e = EPOCH.lock().expect("epoch lock poisoned");
    let epoch = *e.get_or_insert(t);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// An open span. Outer calls go through [`Span::call`]; closing files
/// the record in the process-wide span log.
pub struct Span<'m> {
    meters: Option<&'m Meters>,
    rec: SpanRec,
    t0: Instant,
}

impl<'m> Span<'m> {
    /// Opens a span whose outer calls' inner children are read from
    /// `meters` (`None` when the span has no traced driver).
    pub fn open(name: impl Into<String>, parent: u64, meters: Option<&'m Meters>) -> Self {
        Self::open_at(name, parent, meters, Instant::now())
    }

    /// [`Span::open`] with a start instant taken earlier (work done
    /// before the meters existed is then [`Span::record`]ed).
    pub fn open_at(
        name: impl Into<String>,
        parent: u64,
        meters: Option<&'m Meters>,
        t0: Instant,
    ) -> Self {
        Span {
            meters,
            rec: SpanRec {
                id: NEXT_SPAN.fetch_add(1, Relaxed),
                parent,
                name: name.into(),
                thread: tid(),
                start_ns: since_epoch(t0),
                dur_ns: 0,
                calls: Vec::new(),
            },
            t0,
        }
    }

    /// This span's id, for children.
    pub fn id(&self) -> u64 {
        self.rec.id
    }

    /// Times `f` as one outer call named `name`, with the inner calls
    /// it makes.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = self.meters.map(Meters::snap).unwrap_or_default();
        let t0 = Instant::now();
        let r = f();
        let busy = t0.elapsed().as_nanos() as u64;
        let inner = self
            .meters
            .map(|m| m.snap().minus(&before))
            .unwrap_or_default();
        self.record(name, busy, &inner);
        r
    }

    /// Adds one outer call named `name` that took `busy_ns`, with its
    /// inner calls.
    pub fn record(&mut self, name: &'static str, busy_ns: u64, inner: &Snap) {
        let agg = match self.rec.calls.iter_mut().position(|(n, _)| *n == name) {
            Some(i) => &mut self.rec.calls[i].1,
            None => {
                self.rec.calls.push((name, Outer::default()));
                &mut self.rec.calls.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.busy_ns += busy_ns;
        agg.inner.add(inner);
    }

    /// Closes the span, files it, and returns a copy of the record.
    pub fn close(mut self) -> SpanRec {
        self.rec.dur_ns = self.t0.elapsed().as_nanos() as u64;
        SPANS
            .lock()
            .expect("span log poisoned")
            .push(self.rec.clone());
        self.rec
    }
}

impl SpanRec {
    /// The aggregate of outer call `name` (empty if never called).
    pub fn outer(&self, name: &str) -> Outer {
        self.calls
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o.clone())
            .unwrap_or_default()
    }

    /// Span time not inside any outer call.
    pub fn self_ns(&self) -> u64 {
        let outer: u64 = self.calls.iter().map(|(_, o)| o.busy_ns).sum();
        self.dur_ns.saturating_sub(outer)
    }
}

/// Takes every recorded span out of the process-wide log.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// Renders spans as JSON lines: one span per line, with its outer
/// calls and, under each, its inner calls (count, busy ns, covered ns)
/// and self ns.
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"calls\":{{",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.dur_ns, s.self_ns()
        );
        for (i, (name, o)) in s.calls.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"count\":{},\"busy_ns\":{},\"self_ns\":{},\"inner\":{{",
                if i > 0 { "," } else { "" },
                name,
                o.count,
                o.busy_ns,
                o.self_ns()
            );
            let mut first = true;
            for &c in INNER {
                let n = o.inner.count(c);
                if n == 0 {
                    continue;
                }
                let _ = write!(
                    out,
                    "{}\"{}\":{{\"count\":{},\"busy_ns\":{},\"covered_ns\":{}}}",
                    if first { "" } else { "," },
                    c.name(),
                    n,
                    o.inner.busy(&[c]),
                    o.inner.covered(&[c])
                );
                first = false;
            }
            out.push_str("}}");
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_and_worker_slots_cover_like_parallel_work() {
        let m = Meters::new(0);
        let mut span = Span::open("t", 0, Some(&m));
        span.call("outer", || {
            m.time(Call::Update, || std::hint::black_box(1));
            std::thread::scope(|s| {
                s.spawn(|| m.time(Call::Receive, || std::hint::black_box(2)));
            });
        });
        let rec = span.close();
        let o = rec.outer("outer");
        assert_eq!(o.count, 1);
        assert_eq!(o.inner.count(Call::Update), 1);
        assert_eq!(o.inner.count(Call::Receive), 1);
        assert!(o.inner.covered(INNER) <= o.inner.busy(INNER));
        assert!(o.busy_ns >= o.self_ns());
        assert!(rec.dur_ns >= o.busy_ns);
    }
}
