//! Spans recorded around every call the benchmark makes into a layer.
//!
//! The benchmark times the library from outside: each span wraps one
//! call (a session build, a `request_*`, a `run_until` slice, an epoch,
//! a tenant step or a fleet barrier), names the module that owns the
//! call, points at the span that caused it, and carries the deltas of
//! the sessions' public counters over its interval. Spans stay in
//! memory; [`Tracer::write_jsonl`] writes them out once the run is over.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! run measures the library alone.

use std::io::Write;
use std::time::Instant;

/// The module a span's call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop.
    Bench,
    /// `telecast-media`: the audience scripts.
    Media,
    /// `telecast`: sessions, shards and the tenant fleet (the `net`
    /// delay backend is built inside a session build).
    Core,
}

impl Layer {
    /// The name used in metric keys and in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Media => "media",
            Layer::Core => "core",
        }
    }
}

/// Which part of the simulated timeline a slice belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not a slice.
    None,
    /// The opening audience ramp.
    Ramp,
    /// A re-focus storm or an arrival burst.
    Storm,
    /// Everything else.
    Steady,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::None => "",
            Phase::Ramp => "ramp",
            Phase::Storm => "storm",
            Phase::Steady => "steady",
        }
    }
}

/// Public counters read before and after a span, summed over every
/// session the call touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Engine events fired.
    pub events: u64,
    /// Subscription messages sent by the §VI resync.
    pub subscription_messages: u64,
    /// Resync passes stopped by the visit cap.
    pub resync_cap_hits: u64,
    /// Streams accepted.
    pub accepted_streams: u64,
    /// Tree displacements.
    pub displacements: u64,
    /// Victims cut off by departures.
    pub victims: u64,
    /// Parked joins retried.
    pub join_retries: u64,
}

impl Counters {
    /// Field-wise `self - before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            events: self.events - before.events,
            subscription_messages: self.subscription_messages - before.subscription_messages,
            resync_cap_hits: self.resync_cap_hits - before.resync_cap_hits,
            accepted_streams: self.accepted_streams - before.accepted_streams,
            displacements: self.displacements - before.displacements,
            victims: self.victims - before.victims,
            join_retries: self.join_retries - before.join_retries,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            events: self.events + other.events,
            subscription_messages: self.subscription_messages + other.subscription_messages,
            resync_cap_hits: self.resync_cap_hits + other.resync_cap_hits,
            accepted_streams: self.accepted_streams + other.accepted_streams,
            displacements: self.displacements + other.displacements,
            victims: self.victims + other.victims,
            join_retries: self.join_retries + other.join_retries,
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Owning module.
    pub layer: Layer,
    /// The call, e.g. `request_join` or `epoch`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Viewer id of a request, or tenant index of a tenant step.
    pub key: Option<u64>,
    /// Timeline phase of a slice span.
    pub phase: Phase,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counter deltas over the span.
    pub deltas: Counters,
}

impl Span {
    /// Wall-clock length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>, Counters);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span under the innermost open one. `counters` is only
    /// read when tracing is on.
    pub fn begin(
        &mut self,
        layer: Layer,
        name: &'static str,
        key: Option<u64>,
        phase: Phase,
        counters: impl FnOnce() -> Counters,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None, Counters::default());
        }
        let before = counters();
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            key,
            phase,
            start_ns: self.now_ns(),
            end_ns: 0,
            deltas: Counters::default(),
        });
        self.open.push(index);
        SpanId(Some(index), before)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId, counters: impl FnOnce() -> Counters) {
        let SpanId(Some(index), before) = id else {
            return;
        };
        let end_ns = self.now_ns();
        let after = counters();
        assert_eq!(self.open.pop(), Some(index), "spans must nest");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.deltas = after.since(before);
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its length minus the part its direct
    /// children cover (children never overlap, since calls nest).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the first failed write or the flush.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        let self_ns = self.self_times_ns();
        for (index, span) in self.spans.iter().enumerate() {
            let d = span.deltas;
            writeln!(
                out,
                "{{\"id\":{index},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"key\":{},\
                 \"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"events\":{},\
                 \"subscription_messages\":{},\"resync_cap_hits\":{},\"accepted_streams\":{},\
                 \"displacements\":{},\"victims\":{},\"join_retries\":{}}}",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.layer.name(),
                span.name,
                span.key.map_or("null".to_string(), |k| k.to_string()),
                span.phase.name(),
                span.start_ns,
                span.end_ns,
                self_ns[index],
                d.events,
                d.subscription_messages,
                d.resync_cap_hits,
                d.accepted_streams,
                d.displacements,
                d.victims,
                d.join_retries,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new(true);
        let root = tr.begin(Layer::Bench, "rep", None, Phase::None, Counters::default);
        let child = tr.begin(Layer::Core, "slice", None, Phase::Steady, Counters::default);
        let grandchild = tr.begin(
            Layer::Core,
            "run_until",
            None,
            Phase::None,
            Counters::default,
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(grandchild, Counters::default);
        tr.end(child, Counters::default);
        tr.end(root, Counters::default);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let self_ns = tr.self_times_ns();
        let total: u64 = self_ns.iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        assert!(self_ns[2] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin(Layer::Core, "x", None, Phase::None, || {
            panic!("counters read while tracing is off")
        });
        tr.end(id, || panic!("counters read while tracing is off"));
        assert!(tr.spans().is_empty());
    }
}
