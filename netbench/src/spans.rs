//! Drains the spaces' span rings during a traced window and pairs each
//! top-level client span with the server span of the same hop.

use std::collections::HashMap;
use std::sync::Arc;

use netobj::SpanRing;
use netobj_wire::span::{SpanKind, SpanRecord};

/// Unpaired spans older than this many drains are given up on. Long
/// enough to pair a call that stalled for a whole reactor tick (500 ms).
const MAX_AGE: u64 = 100;

/// Running sums over the spans seen so far. Means add up, so the
/// breakdown is built from these and never from medians.
#[derive(Debug, Default, Clone)]
pub struct SpanSums {
    /// Top-level client spans: count, duration and bytes.
    pub client_n: u64,
    pub client_us: f64,
    pub client_bytes: f64,
    /// Server spans: count, queue wait, service, and duration left over.
    pub server_n: u64,
    pub queue_wait_us: f64,
    pub service_us: f64,
    pub server_other_us: f64,
    /// Every server span's queue wait, for its p99.
    pub queue_waits: Vec<u64>,
    /// Client spans paired with their server span, and the summed
    /// difference of their durations.
    pub paired: u64,
    pub hop_us: f64,
    /// Spans recorded while draining and spans the drains captured.
    pub recorded: u64,
    pub captured: u64,
}

struct Ring {
    ring: Arc<SpanRing>,
    next_seq: u64,
}

pub struct Tracer {
    rings: Vec<Ring>,
    drains: u64,
    /// Unpaired client spans by span id: (duration µs, drain seen).
    clients: HashMap<u64, (u64, u64)>,
    /// Unpaired server spans by parent span id: (duration µs, drain seen).
    servers: HashMap<u64, (u64, u64)>,
    pub sums: SpanSums,
}

impl Tracer {
    /// Starts from the spans already in each ring, so only spans recorded
    /// from now on are counted.
    pub fn new(rings: &[&Arc<SpanRing>]) -> Tracer {
        Tracer {
            rings: rings
                .iter()
                .map(|r| Ring {
                    ring: Arc::clone(r),
                    next_seq: r.recorded(),
                })
                .collect(),
            drains: 0,
            clients: HashMap::new(),
            servers: HashMap::new(),
            sums: SpanSums::default(),
        }
    }

    /// Reads every span recorded since the last drain.
    pub fn drain(&mut self) {
        self.drains += 1;
        let mut fresh: Vec<SpanRecord> = Vec::new();
        for r in &mut self.rings {
            let head = r.ring.recorded();
            self.sums.recorded += head - r.next_seq;
            let start = r.next_seq;
            fresh.extend(
                r.ring
                    .snapshot()
                    .into_iter()
                    .filter(|s| s.seq >= start && s.seq < head),
            );
            r.next_seq = head;
        }
        self.sums.captured += fresh.len() as u64;
        for span in fresh {
            self.add(span);
        }
        let now = self.drains;
        self.clients.retain(|_, (_, seen)| now - *seen <= MAX_AGE);
        self.servers.retain(|_, (_, seen)| now - *seen <= MAX_AGE);
    }

    fn add(&mut self, span: SpanRecord) {
        let s = &mut self.sums;
        match span.kind {
            // Only calls the benchmark itself made; nested calls issued
            // during a dispatch have a parent.
            SpanKind::Client if span.parent_span == 0 => {
                s.client_n += 1;
                s.client_us += span.duration_micros as f64;
                s.client_bytes += (span.marshal_bytes + span.unmarshal_bytes) as f64;
                match self.servers.remove(&span.span_id) {
                    Some((server_us, _)) => pair(s, span.duration_micros, server_us),
                    None => {
                        self.clients
                            .insert(span.span_id, (span.duration_micros, self.drains));
                    }
                }
            }
            SpanKind::Client => {}
            SpanKind::Server => {
                s.server_n += 1;
                s.queue_wait_us += span.queue_wait_micros as f64;
                s.service_us += span.service_micros as f64;
                s.server_other_us += span
                    .duration_micros
                    .saturating_sub(span.queue_wait_micros + span.service_micros)
                    as f64;
                s.queue_waits.push(span.queue_wait_micros);
                match self.clients.remove(&span.parent_span) {
                    Some((client_us, _)) => pair(s, client_us, span.duration_micros),
                    None => {
                        self.servers
                            .insert(span.parent_span, (span.duration_micros, self.drains));
                    }
                }
            }
        }
    }
}

fn pair(s: &mut SpanSums, client_us: u64, server_us: u64) {
    s.paired += 1;
    s.hop_us += client_us as f64 - server_us as f64;
}
