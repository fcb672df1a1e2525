//! The benchmark's channel wrapper and span recorder.
//!
//! [`BenchChannel`] wraps each end of a session's transport. It always
//! counts bytes and messages (cheap per-end counters, read for
//! `bytes_per_email`); with a [`Recorder`] attached it also records one
//! [`Span`] per `send`/`recv`, parented to the operation span the client code
//! has open (`connect`/`process` on the client, the session root on the
//! provider). Spans stay in per-channel buffers and move to the recorder
//! when the channel drops, so recording takes no shared lock per call.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pretzel_transport::{Channel, Result};

/// Which party a span was recorded on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The benchmark's client thread.
    Client,
    /// A mailroom worker thread.
    Provider,
}

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<u64>,
    /// The benchmark's session number, shared by both ends.
    pub session: u64,
    /// Where it ran.
    pub side: Side,
    /// `connect`, `process`, `query`, `session`, `send` or `recv`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Payload bytes moved (send/recv only).
    pub bytes: u64,
}

/// Collects the spans of one traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Moves a buffer of finished spans into the recorder.
    pub fn absorb(&self, spans: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking thread")
            .append(spans);
    }

    /// Every span recorded so far, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span lock poisoned by a panicking thread"),
        );
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"session\":{},\"side\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id,
            parent,
            s.session,
            match s.side {
                Side::Client => "client",
                Side::Provider => "provider",
            },
            s.name,
            s.start,
            s.end,
            s.bytes
        )?;
    }
    out.flush()
}

/// Per-end traffic counters, shared between a channel and the client code.
#[derive(Default)]
pub struct Traffic {
    /// Payload bytes sent.
    pub bytes_sent: AtomicU64,
    /// Payload bytes received.
    pub bytes_recv: AtomicU64,
    /// Messages sent plus messages received.
    pub messages: AtomicU64,
}

impl Traffic {
    /// `(sent, received, messages)` now.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.bytes_recv.load(Ordering::Relaxed),
            self.messages.load(Ordering::Relaxed),
        )
    }
}

/// Tracing state of one traced channel end.
struct Tracing {
    recorder: Arc<Recorder>,
    session: u64,
    side: Side,
    /// The span new send/recv spans are parented to, set by the client code.
    parent: Arc<AtomicU64>,
    buf: Vec<Span>,
    /// The provider end's session root: (id, start).
    root: Option<(u64, u64)>,
}

/// A [`Channel`] decorator that counts traffic and, when traced, records
/// one span per call.
pub struct BenchChannel<C: Channel> {
    inner: C,
    traffic: Arc<Traffic>,
    tracing: Option<Tracing>,
}

impl<C: Channel> BenchChannel<C> {
    /// A traced client end: send/recv spans are parented to whatever span
    /// id the client code stores in `parent`.
    pub fn client(
        inner: C,
        traffic: Arc<Traffic>,
        recorder: Option<&Arc<Recorder>>,
        session: u64,
        parent: Arc<AtomicU64>,
    ) -> Self {
        BenchChannel {
            inner,
            traffic,
            tracing: recorder.map(|r| Tracing {
                recorder: Arc::clone(r),
                session,
                side: Side::Client,
                parent,
                buf: Vec::new(),
                root: None,
            }),
        }
    }

    /// A traced provider end: opens a `session` root span now (at submit),
    /// closed when the worker drops the channel.
    pub fn provider(inner: C, recorder: Option<&Arc<Recorder>>, session: u64) -> Self {
        BenchChannel {
            inner,
            traffic: Arc::default(),
            tracing: recorder.map(|r| {
                let root = r.next_id();
                Tracing {
                    recorder: Arc::clone(r),
                    session,
                    side: Side::Provider,
                    parent: Arc::new(AtomicU64::new(root)),
                    buf: Vec::new(),
                    root: Some((root, r.now())),
                }
            }),
        }
    }

    fn record(&mut self, name: &'static str, start: u64, bytes: usize) {
        if let Some(t) = &mut self.tracing {
            let parent = t.parent.load(Ordering::Relaxed);
            t.buf.push(Span {
                id: t.recorder.next_id(),
                parent: (parent != 0).then_some(parent),
                session: t.session,
                side: t.side,
                name,
                start,
                end: t.recorder.now(),
                bytes: bytes as u64,
            });
        }
    }

    fn clock(&self) -> u64 {
        self.tracing.as_ref().map_or(0, |t| t.recorder.now())
    }
}

impl<C: Channel> Channel for BenchChannel<C> {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        let start = self.clock();
        let out = self.inner.send(msg);
        self.record("send", start, msg.len());
        self.traffic
            .bytes_sent
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.traffic.messages.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let start = self.clock();
        let out = self.inner.recv();
        let len = out.as_ref().map_or(0, Vec::len);
        self.record("recv", start, len);
        if out.is_ok() {
            self.traffic
                .bytes_recv
                .fetch_add(len as u64, Ordering::Relaxed);
            self.traffic.messages.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

impl<C: Channel> Drop for BenchChannel<C> {
    fn drop(&mut self) {
        if let Some(t) = &mut self.tracing {
            if let Some((id, start)) = t.root {
                t.buf.push(Span {
                    id,
                    parent: None,
                    session: t.session,
                    side: t.side,
                    name: "session",
                    start,
                    end: t.recorder.now(),
                    bytes: 0,
                });
            }
            t.recorder.absorb(&mut t.buf);
        }
    }
}

/// Total length of the union of `intervals` (unsorted, may overlap).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children's intervals cover (children are clipped to the parent).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

/// Length of the intersection of two interval sets, each sorted by start
/// and internally disjoint.
pub fn overlap_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::memory_pair;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self time.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120)]), 70);
        // A child outside the parent covers nothing.
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        // Fully covered.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn overlap_of_sorted_interval_sets() {
        assert_eq!(overlap_len(&[(0, 10), (20, 30)], &[(5, 25)]), 10);
        assert_eq!(overlap_len(&[(0, 10)], &[(10, 20)]), 0);
        assert_eq!(overlap_len(&[(0, 100)], &[(10, 20), (30, 40)]), 20);
        assert_eq!(overlap_len(&[], &[(0, 1)]), 0);
    }

    #[test]
    fn traced_channels_record_parented_spans_and_count_traffic() {
        let recorder = Recorder::new();
        let (a, b) = memory_pair();
        let parent = Arc::new(AtomicU64::new(0));
        let up = Arc::new(Traffic::default());
        let mut client = BenchChannel::client(a, up.clone(), Some(&recorder), 7, parent.clone());
        let mut provider = BenchChannel::provider(b, Some(&recorder), 7);
        let down = Arc::clone(&provider.traffic);
        let op = recorder.next_id();
        parent.store(op, Ordering::Relaxed);
        client.send(b"hello").unwrap();
        assert_eq!(provider.recv().unwrap(), b"hello");
        provider.send(b"ok").unwrap();
        assert_eq!(client.recv().unwrap(), b"ok");
        drop(client);
        drop(provider);
        assert_eq!(up.snapshot(), (5, 2, 2));
        assert_eq!(down.snapshot(), (2, 5, 2));

        let spans = recorder.take();
        assert_eq!(spans.len(), 5, "two client, two provider, one root");
        let root = spans.iter().find(|s| s.name == "session").unwrap();
        assert_eq!((root.parent, root.side), (None, Side::Provider));
        for s in spans.iter().filter(|s| s.name != "session") {
            assert_eq!(s.session, 7);
            let want = if s.side == Side::Client { op } else { root.id };
            assert_eq!(s.parent, Some(want), "{s:?}");
            assert!(s.start <= s.end && root.start <= s.start);
        }
    }
}
