//! Tracing from outside the program: spans recorded around the calls the
//! benchmark makes into each layer, a byte-counting executor around the
//! draw plane, and a timing wrapper around the journal's storage.
//!
//! Spans stay in per-thread buffers that are sized before the measured
//! phase and drained when it ends; nothing is written while timing.

use crate::harness::now_ns;
use sampcert_core::{
    Entropy, Executor, ExecutorFailure, Inline, JournalError, JournalStorage, Mechanism,
    SpawnExecutor,
};
use sampcert_slang::{ByteSource, OsByteSource, Value};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// The layer a span times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Layer {
    /// One request, from its due (open loop) or submit (closed loop)
    /// time to its answer.
    #[default]
    Request,
    /// The generator's lateness: due time to the push.
    Late,
    /// Time inside `Ingress::try_push`.
    Door,
    /// From the push to `Ingress::pop` returning it.
    Queue,
    /// From the `answer*` call to its result.
    Answer,
    /// Time inside `Executor::run_into`.
    Draw,
    /// Time inside `JournalStorage::append`.
    Append,
    /// Time inside `JournalStorage::sync`.
    Sync,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::Request,
    Layer::Late,
    Layer::Door,
    Layer::Queue,
    Layer::Answer,
    Layer::Draw,
    Layer::Append,
    Layer::Sync,
];

/// The layers whose spans time a call into the program below the
/// session: rt's door and queue, the draw and the journal. A request's
/// coverage counts these only. The lateness and answer spans are stamped
/// by the harness around the others, so with them every request would be
/// covered by construction; what these leave uncovered is generator
/// lateness, the session's own time and the harness's stamps.
pub const ATTRIBUTED: [Layer; 5] = [
    Layer::Door,
    Layer::Queue,
    Layer::Draw,
    Layer::Append,
    Layer::Sync,
];

impl Layer {
    /// The span name printed in the span table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Late => "harness.late",
            Layer::Door => "rt.door",
            Layer::Queue => "rt.queue",
            Layer::Answer => "session.answer",
            Layer::Draw => "draw",
            Layer::Append => "journal.append",
            Layer::Sync => "journal.sync",
        }
    }

    /// The layer of the span that causes this one.
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::Request => None,
            Layer::Late | Layer::Door | Layer::Queue | Layer::Answer => Some(Layer::Request),
            Layer::Draw | Layer::Append | Layer::Sync => Some(Layer::Answer),
        }
    }
}

/// One timed interval of one request, on the run clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// The request's sequence number.
    pub req: u32,
    /// What was timed.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
    /// Bytes drawn on this thread since the last `run_into` returned:
    /// counted per byte without an atomic, published once per draw.
    static DRAWN: Cell<u64> = const { Cell::new(0) };
}

/// Sizes this thread's span buffer for `capacity` more spans and pages
/// it in, so recording never faults inside a measured phase.
pub fn reserve(capacity: usize) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let len = s.len();
        s.resize(len + capacity, Span::default());
        s.truncate(len);
    });
}

/// Records a span on this thread, unless its buffer is full (a full
/// buffer never reallocates inside a measured phase).
pub fn record(req: u32, layer: Layer, start: u64, end: u64) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < s.capacity() {
            s.push(Span {
                req,
                layer,
                start,
                end,
            });
        } else {
            COUNTERS.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Drains this thread's span buffer.
pub fn take() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Marks the traced request this thread is serving, so the executor and
/// storage wrappers below attribute their spans to it; `None` when the
/// request is not sampled.
pub fn set_current(req: Option<u32>) {
    CURRENT.with(|c| c.set(req));
}

fn current() -> Option<u32> {
    CURRENT.with(Cell::get)
}

/// Counts taken at the wrapped layer boundaries, for every request of a
/// traced phase (sampled or not).
#[derive(Debug)]
pub struct Counters {
    /// Entropy bytes the traced executor drew.
    pub draw_bytes: AtomicU64,
    /// `JournalStorage::sync` calls.
    pub syncs: AtomicU64,
    /// Bytes passed to `JournalStorage::append`.
    pub append_bytes: AtomicU64,
    /// Time in `JournalStorage::read_all`, ns.
    pub read_ns: AtomicU64,
    /// Spans lost to a full buffer.
    pub spans_dropped: AtomicU64,
}

/// The process-wide counters (a run serves one traced phase at a time).
pub static COUNTERS: Counters = Counters {
    draw_bytes: AtomicU64::new(0),
    syncs: AtomicU64::new(0),
    append_bytes: AtomicU64::new(0),
    read_ns: AtomicU64::new(0),
    spans_dropped: AtomicU64::new(0),
};

impl Counters {
    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in [
            &self.draw_bytes,
            &self.syncs,
            &self.append_bytes,
            &self.read_ns,
            &self.spans_dropped,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A byte source that counts what it hands out.
struct Counting(Box<dyn ByteSource + Send>);

impl ByteSource for Counting {
    fn next_byte(&mut self) -> u8 {
        DRAWN.with(|d| d.set(d.get() + 1));
        self.0.next_byte()
    }

    fn fill(&mut self, out: &mut [u8]) {
        DRAWN.with(|d| d.set(d.get() + out.len() as u64));
        self.0.fill(out);
    }
}

/// The inline executor over a byte-counting source, timing each
/// `run_into` as a draw span. Same stream as `Inline` for the same
/// entropy, so traced answers equal untraced ones.
pub struct TracedInline(Inline);

impl Executor for TracedInline {
    fn lanes(&self) -> usize {
        1
    }

    fn run_into<T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), ExecutorFailure> {
        let start = now_ns();
        let r = self.0.run_into(mech, db, n, out);
        COUNTERS
            .draw_bytes
            .fetch_add(DRAWN.with(|d| d.replace(0)), Ordering::Relaxed);
        if let Some(req) = current() {
            record(req, Layer::Draw, start, now_ns());
        }
        r
    }
}

impl SpawnExecutor for TracedInline {
    fn spawn(entropy: Entropy, _lanes: usize) -> Self {
        let src: Box<dyn ByteSource + Send> = match entropy {
            Entropy::Os => Box::new(OsByteSource::new()),
            Entropy::Seeded(root) => Box::new(root.stream(0)),
        };
        TracedInline(Inline::from_source(Box::new(Counting(src))))
    }
}

/// A journal storage with each append and sync timed as a span of the
/// request being served, and reads timed into [`Counters::read_ns`].
#[derive(Debug)]
pub struct TracedStorage<S>(pub S);

impl<S: JournalStorage> JournalStorage for TracedStorage<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        COUNTERS
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let start = now_ns();
        let r = self.0.append(bytes);
        if let Some(req) = current() {
            record(req, Layer::Append, start, now_ns());
        }
        r
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        COUNTERS.syncs.fetch_add(1, Ordering::Relaxed);
        let start = now_ns();
        let r = self.0.sync();
        if let Some(req) = current() {
            record(req, Layer::Sync, start, now_ns());
        }
        r
    }

    fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
        let start = now_ns();
        let r = self.0.read_all();
        COUNTERS
            .read_ns
            .fetch_add(now_ns() - start, Ordering::Relaxed);
        r
    }

    fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        self.0.truncate(len)
    }

    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.0.replace_with(bytes)
    }

    fn len(&mut self) -> Result<u64, JournalError> {
        self.0.len()
    }
}

/// Length of the part of `[start, end)` that `children` cover (their
/// union, clipped to the interval).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-request view of the spans: for each layer, its summed duration and
/// self time (duration minus the part its child spans cover).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestTimes {
    /// The request's sequence number.
    pub req: u32,
    /// Summed duration per layer, ns, indexed like [`LAYERS`].
    pub dur: [u64; 8],
    /// Summed self time per layer, ns, indexed like [`LAYERS`].
    pub self_ns: [u64; 8],
    /// How many spans of each layer the request has.
    pub count: [u32; 8],
    /// The part of the request span that [`ATTRIBUTED`] spans cover, ns.
    pub attributed: u64,
}

fn index(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is listed")
}

/// Groups spans by request and computes each request's layer times.
/// Requests without a root span (sampled but never answered) are
/// dropped.
pub fn request_times(mut spans: Vec<Span>) -> Vec<RequestTimes> {
    spans.sort_unstable_by_key(|s| (s.req, s.start));
    let mut out = Vec::new();
    for group in spans.chunk_by(|a, b| a.req == b.req) {
        if !group.iter().any(|s| s.layer == Layer::Request) {
            continue;
        }
        let mut t = RequestTimes {
            req: group[0].req,
            ..RequestTimes::default()
        };
        for s in group {
            let kids: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.layer.parent() == Some(s.layer))
                .map(|c| (c.start, c.end))
                .collect();
            let i = index(s.layer);
            t.dur[i] += s.dur();
            t.self_ns[i] += s.dur() - covered(s.start, s.end, &kids);
            t.count[i] += 1;
        }
        let spans_of = |layers: &[Layer]| -> Vec<(u64, u64)> {
            group
                .iter()
                .filter(|c| layers.contains(&c.layer))
                .map(|c| (c.start, c.end))
                .collect()
        };
        let attributed = spans_of(&ATTRIBUTED);
        t.attributed = spans_of(&[Layer::Request])
            .iter()
            .map(|&(start, end)| covered(start, end, &attributed))
            .sum();
        out.push(t);
    }
    out
}

/// The layer time of `t`, ns.
pub fn dur_of(t: &RequestTimes, layer: Layer) -> u64 {
    t.dur[index(layer)]
}

/// The layer self time of `t`, ns.
pub fn self_of(t: &RequestTimes, layer: Layer) -> u64 {
    t.self_ns[index(layer)]
}

/// Whether `t` has a span of `layer`.
pub fn has(t: &RequestTimes, layer: Layer) -> bool {
    t.count[index(layer)] > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            req,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn union_clips_and_merges_overlaps() {
        assert_eq!(covered(10, 20, &[]), 0);
        assert_eq!(covered(10, 20, &[(0, 12), (11, 15), (18, 30)]), 7);
        assert_eq!(covered(10, 20, &[(12, 14), (12, 14)]), 2);
        assert_eq!(covered(10, 20, &[(25, 30)]), 0);
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // request [0,100): late [0,5), door [5,7), queue [5,40),
        // answer [45,95) with draw [50,60) and a sync [60,90).
        let spans = vec![
            span(3, Layer::Answer, 45, 95),
            span(3, Layer::Request, 0, 100),
            span(3, Layer::Late, 0, 5),
            span(3, Layer::Door, 5, 7),
            span(3, Layer::Queue, 5, 40),
            span(3, Layer::Draw, 50, 60),
            span(3, Layer::Sync, 60, 90),
            // A second request with no root span is dropped.
            span(4, Layer::Draw, 0, 1),
        ];
        let times = request_times(spans);
        assert_eq!(times.len(), 1);
        let t = &times[0];
        assert_eq!(t.req, 3);
        // Children of the request cover [0,40) ∪ [45,95) = 90 of 100.
        assert_eq!(self_of(t, Layer::Request), 10);
        assert_eq!(dur_of(t, Layer::Request), 100);
        // The answer's children cover 10 + 30 of its 50.
        assert_eq!(self_of(t, Layer::Answer), 10);
        assert_eq!(dur_of(t, Layer::Answer), 50);
        // Leaves: self time is the whole duration.
        assert_eq!(self_of(t, Layer::Queue), 35);
        assert_eq!(self_of(t, Layer::Draw), 10);
        assert!(has(t, Layer::Sync) && !has(t, Layer::Append));
        // Door, queue, draw and sync cover [5,40) ∪ [50,90) = 75; the
        // rest is lateness, the answer's self time and the two gaps.
        assert_eq!(t.attributed, 75);
    }
}
