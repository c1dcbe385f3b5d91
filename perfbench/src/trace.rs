//! Spans and the `TraceSource` probe.
//!
//! A [`Tracer`] records spans around the benchmark's own calls into the
//! library: name, start, end, parent, op id and thread. Spans stay in
//! memory and are written out when the run ends. Work that the library
//! fans out onto its own worker threads is seen through a [`Probe`]: the
//! [`Probed`] adapter wraps a trace source and counts (and, when timed,
//! times) every `accumulate` call, one slot per thread, so a fill reports
//! how many rows each thread accumulated, how long it was busy and how
//! many threads the library spawned for it.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ipmark_traces::{TraceError, TraceSource};

use crate::alloc;

/// Nanoseconds since the first call in this process.
// The benchmark is the one place wall time belongs (the repository's
// clippy.toml bans it from library code).
#[allow(clippy::disallowed_methods)]
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small per-process thread number (1 for the first thread that asks).
pub fn thread_label() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LABEL: Cell<u64> = const { Cell::new(0) };
    }
    LABEL.with(|l| {
        if l.get() == 0 {
            l.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// One recorded span. `busy` equals `end - start` except for the per-thread
/// aggregates a [`Probe`] emits, where it is the summed duration of the
/// thread's `accumulate` calls between `start` (first call) and `end`
/// (last call).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for an op's root.
    pub parent: u64,
    pub op: u64,
    pub thread: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub busy: u64,
    /// Calls folded into the span (1 for an ordinary span).
    pub calls: u64,
    /// Heap allocations made on the span's thread while it was open.
    pub allocs: u64,
}

impl Span {
    pub fn json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"allocs\":{}}}",
            self.id,
            self.parent,
            self.op,
            self.thread,
            self.name,
            self.start,
            self.end,
            self.busy,
            self.calls,
            self.allocs
        )
    }
}

/// Where a new span hangs: its op and its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub op: u64,
    pub parent: u64,
}

impl Ctx {
    pub fn root(op: u64) -> Self {
        Self { op, parent: 0 }
    }
}

/// An open span; close it with [`Tracer::close`].
#[must_use]
pub struct Open {
    id: u64,
    ctx: Ctx,
    name: &'static str,
    start: u64,
    allocs: u64,
}

impl Open {
    /// The context for spans nested inside this one.
    pub fn ctx(&self) -> Ctx {
        Ctx {
            op: self.ctx.op,
            parent: self.id,
        }
    }
}

/// The in-memory span store of one traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

impl Tracer {
    fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn open(&self, name: &'static str, ctx: Ctx) -> Open {
        Open {
            id: self.next_id(),
            ctx,
            name,
            allocs: alloc::local(),
            start: now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let end = now_ns();
        let span = Span {
            id: open.id,
            parent: open.ctx.parent,
            op: open.ctx.op,
            thread: thread_label(),
            name: open.name,
            start: open.start,
            end,
            busy: end - open.start,
            calls: 1,
            allocs: alloc::local() - open.allocs,
        };
        self.push(span);
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking op")
            .push(span);
    }

    /// Records one span per thread that served `probe` since its last
    /// [`Probe::begin`], as children of `ctx`.
    pub fn record_fill(&self, probe: &Probe, ctx: Ctx) {
        for slot in probe.slots() {
            let span = Span {
                id: self.next_id(),
                parent: ctx.parent,
                op: ctx.op,
                thread: slot.thread,
                name: probe.name,
                start: slot.first,
                end: slot.last,
                busy: slot.busy,
                calls: slot.calls,
                allocs: slot.allocs,
            };
            self.push(span);
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking op"),
        )
    }
}

const MAX_SLOTS: usize = 64;

/// Per-thread counters of one probe; 64-byte aligned so threads never
/// share a cache line.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    thread: AtomicU64,
    caller: AtomicBool,
    calls: AtomicU64,
    busy: AtomicU64,
    allocs: AtomicU64,
    first: AtomicU64,
    last: AtomicU64,
}

/// What one thread did for a probe since the last [`Probe::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SlotStats {
    pub thread: u64,
    /// Whether this is the thread that called [`Probe::begin`].
    pub caller: bool,
    pub calls: u64,
    pub busy: u64,
    pub allocs: u64,
    pub first: u64,
    pub last: u64,
}

/// Counters shared by the [`Probed`] sources of one fill.
pub struct Probe {
    name: &'static str,
    timed: bool,
    epoch: AtomicU64,
    caller: AtomicU64,
    used: AtomicUsize,
    overflow: AtomicBool,
    slots: Box<[Slot]>,
}

thread_local! {
    /// (probe epoch, slot index) of the last probe this thread served.
    static REGISTRATION: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

impl Probe {
    /// A probe whose per-thread aggregates are recorded under `name`;
    /// `timed` adds clock reads and allocation counts to every call.
    pub fn new(name: &'static str, timed: bool) -> Self {
        Self {
            name,
            timed,
            epoch: AtomicU64::new(0),
            caller: AtomicU64::new(0),
            used: AtomicUsize::new(0),
            overflow: AtomicBool::new(false),
            slots: (0..MAX_SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    /// Starts a new fill: clears every slot. Must not race with
    /// `accumulate` calls (the library joins its workers before a fill
    /// returns, so calling it between fills is safe).
    pub fn begin(&self) {
        static EPOCHS: AtomicU64 = AtomicU64::new(1);
        for slot in &self.slots[..self.used.load(Ordering::SeqCst).min(MAX_SLOTS)] {
            for counter in [
                &slot.calls,
                &slot.busy,
                &slot.allocs,
                &slot.first,
                &slot.last,
            ] {
                counter.store(0, Ordering::SeqCst);
            }
        }
        self.used.store(0, Ordering::SeqCst);
        self.overflow.store(false, Ordering::SeqCst);
        self.caller.store(thread_label(), Ordering::SeqCst);
        self.epoch
            .store(EPOCHS.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
    }

    fn slot(&self) -> Option<&Slot> {
        let epoch = self.epoch.load(Ordering::SeqCst);
        REGISTRATION.with(|reg| {
            let (seen, index) = reg.get();
            if seen == epoch {
                return self.slots.get(index);
            }
            let index = self.used.fetch_add(1, Ordering::SeqCst);
            let Some(slot) = self.slots.get(index) else {
                self.overflow.store(true, Ordering::SeqCst);
                return None;
            };
            let thread = thread_label();
            slot.thread.store(thread, Ordering::SeqCst);
            slot.caller.store(
                thread == self.caller.load(Ordering::SeqCst),
                Ordering::SeqCst,
            );
            reg.set((epoch, index));
            Some(slot)
        })
    }

    /// Every thread that served the probe since [`Probe::begin`]. Read it
    /// after the fill returned: the library's scoped join orders every
    /// worker's writes before this read.
    pub fn slots(&self) -> Vec<SlotStats> {
        let used = self.used.load(Ordering::SeqCst).min(MAX_SLOTS);
        self.slots[..used]
            .iter()
            .map(|s| SlotStats {
                thread: s.thread.load(Ordering::SeqCst),
                caller: s.caller.load(Ordering::SeqCst),
                calls: s.calls.load(Ordering::SeqCst),
                busy: s.busy.load(Ordering::SeqCst),
                allocs: s.allocs.load(Ordering::SeqCst),
                first: s.first.load(Ordering::SeqCst),
                last: s.last.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// `accumulate` calls since [`Probe::begin`].
    pub fn calls(&self) -> u64 {
        self.slots().iter().map(|s| s.calls).sum()
    }

    /// Threads other than the caller that served the probe, or `None`
    /// when more threads than the probe has slots showed up.
    pub fn spawned(&self) -> Option<u64> {
        if self.overflow.load(Ordering::SeqCst) {
            return None;
        }
        Some(self.slots().iter().filter(|s| !s.caller).count() as u64)
    }
}

/// A trace source whose `accumulate` calls a [`Probe`] observes. The
/// wrapped source does all the work, so results are bit-identical.
pub struct Probed<'a, S: ?Sized> {
    inner: &'a S,
    probe: &'a Probe,
}

impl<'a, S: ?Sized> Probed<'a, S> {
    pub fn new(inner: &'a S, probe: &'a Probe) -> Self {
        Self { inner, probe }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Probed<'_, S> {
    fn num_traces(&self) -> usize {
        self.inner.num_traces()
    }

    fn trace_len(&self) -> usize {
        self.inner.trace_len()
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        let Some(slot) = self.probe.slot() else {
            return self.inner.accumulate(index, acc);
        };
        // Each slot belongs to one thread, so these counters never contend.
        if !self.probe.timed {
            slot.calls.fetch_add(1, Ordering::Relaxed);
            return self.inner.accumulate(index, acc);
        }
        let allocs = alloc::local();
        let start = now_ns();
        let result = self.inner.accumulate(index, acc);
        let end = now_ns();
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.busy.fetch_add(end - start, Ordering::Relaxed);
        slot.allocs
            .fetch_add(alloc::local() - allocs, Ordering::Relaxed);
        if slot.first.load(Ordering::Relaxed) == 0 {
            slot.first.store(start, Ordering::Relaxed);
        }
        slot.last.store(end, Ordering::Relaxed);
        result
    }
}
