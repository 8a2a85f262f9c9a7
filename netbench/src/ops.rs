//! The three workloads and the caller threads that drive them.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netobj::NetResult;
use netobj_bench::{BenchClient, BenchSvc, Counter};
use netobj_wire::pickle::Blob;

/// Bulk payload size for `bulk_64k`, both directions.
pub const BLOB_LEN: usize = 64 * 1024;
/// The byte `BenchImpl::get_blob` fills its result with.
pub const GET_BLOB_FILL: u8 = 0xa5;
/// Caller threads sharing the client space.
pub const CALLERS: usize = 2;
/// A stub call the benchmark times above this counts as a stall.
pub const SLOW_CALL: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NullTcp,
    Bulk64k,
    RefChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::NullTcp, Workload::Bulk64k, Workload::RefChurn];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NullTcp => "null_tcp",
            Workload::Bulk64k => "bulk_64k",
            Workload::RefChurn => "ref_churn",
        }
    }

    /// Ops each caller runs before anything is timed.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::NullTcp => 4000,
            Workload::Bulk64k => 1000,
            Workload::RefChurn => 500,
        }
    }

    /// Length of one sub-window: long enough for 100 samples beyond the
    /// sub-window's p99 at this host's rates (about 30k, 15k and 3k ops/s).
    pub fn sub_window(self) -> Duration {
        match self {
            Workload::NullTcp | Workload::Bulk64k => Duration::from_secs(1),
            Workload::RefChurn => Duration::from_secs(5),
        }
    }

    /// Top-level stub calls one op makes, averaged over the op cycle
    /// (`bulk_64k` alternates upload and download, one call each).
    pub fn calls_per_op(self) -> f64 {
        match self {
            Workload::NullTcp | Workload::Bulk64k => 1.0,
            Workload::RefChurn => 3.0,
        }
    }
}

/// The seeded upload payload of one caller: splitmix64 output bytes.
pub fn payload(seed: u64, caller: usize) -> Vec<u8> {
    let mut state = seed ^ (caller as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut out = Vec::with_capacity(BLOB_LEN);
    while out.len() < BLOB_LEN {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

/// When a caller stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops (the warm-up).
    Ops(u64),
    /// At `end`. The window from `start` is cut into `subs` sub-windows of
    /// `sub` each (the last one runs on to the end) and the caller reports
    /// the latencies of each sub-window as it ends.
    Window {
        start: Instant,
        end: Instant,
        sub: Duration,
        subs: usize,
    },
}

/// What a caller thread sends the main thread.
pub enum Report {
    /// Latencies in ns of the ops a caller ended in sub-window `index`.
    /// A caller sends its sub-windows in order and may skip empty ones.
    Sub {
        caller: usize,
        index: usize,
        lat_ns: Vec<u64>,
    },
    /// The caller's loop ended.
    Done { caller: usize, result: CallerResult },
}

/// What one caller saw during one run of its loop.
#[derive(Debug, Default)]
pub struct CallerResult {
    /// Summed op latency, in nanoseconds.
    pub lat_sum_ns: u128,
    pub ops: u64,
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    /// Summed duration of every top-level stub call the caller timed.
    pub stub_ns: u128,
    pub stub_calls: u64,
    /// Stub calls slower than [`SLOW_CALL`], by method.
    pub slow_calls: BTreeMap<&'static str, u64>,
}

impl CallerResult {
    pub fn merge(&mut self, other: CallerResult) {
        self.lat_sum_ns += other.lat_sum_ns;
        self.ops += other.ops;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.stub_ns += other.stub_ns;
        self.stub_calls += other.stub_calls;
        for (m, n) in other.slow_calls {
            *self.slow_calls.entry(m).or_default() += n;
        }
    }

    pub fn slow_total(&self) -> u64 {
        self.slow_calls.values().sum()
    }

    /// The slow calls by method, as `add=3, mint=1`.
    pub fn slow_summary(&self) -> String {
        let parts: Vec<String> = self
            .slow_calls
            .iter()
            .map(|(m, n)| format!("{m}={n}"))
            .collect();
        parts.join(", ")
    }
}

struct Caller {
    id: usize,
    workload: Workload,
    svc_o: BenchClient,
    svc_s: BenchClient,
    payload: Vec<u8>,
    /// What `get_blob` must return.
    expected: Vec<u8>,
    /// Ops run so far, across runs: picks upload or download on `bulk_64k`.
    seq: u64,
}

impl Caller {
    fn run(&mut self, stop: Stop, reports: &Sender<Report>) -> CallerResult {
        let mut r = CallerResult::default();
        let mut index = 0;
        let mut lat_ns = Vec::new();
        loop {
            match stop {
                Stop::Ops(n) if r.ops >= n => break,
                Stop::Window { end, .. } if Instant::now() >= end => break,
                _ => {}
            }
            let (took, outcome) = self.op(&mut r);
            r.lat_sum_ns += took.as_nanos();
            if let Stop::Window {
                start, sub, subs, ..
            } = stop
            {
                let now = (start.elapsed().as_nanos() / sub.as_nanos()) as usize;
                let now = now.min(subs - 1);
                if now != index {
                    let lat_ns = std::mem::take(&mut lat_ns);
                    // The main thread outlives the callers' loops.
                    let _ = reports.send(Report::Sub {
                        caller: self.id,
                        index,
                        lat_ns,
                    });
                    index = now;
                }
                lat_ns.push(took.as_nanos() as u64);
            }
            r.ops += 1;
            self.seq += 1;
            if let Err(e) = outcome {
                r.failed += 1;
                if r.errors.len() < 8 {
                    r.errors.push(e);
                }
            }
        }
        if matches!(stop, Stop::Window { .. }) {
            let _ = reports.send(Report::Sub {
                caller: self.id,
                index,
                lat_ns,
            });
        }
        r
    }

    /// Runs one op and returns how long it took, from the start of its
    /// first stub call to the return of its last. Preparing the upload
    /// and checking results happen outside that time.
    fn op(&self, r: &mut CallerResult) -> (Duration, Result<(), String>) {
        match self.workload {
            Workload::NullTcp => {
                let t0 = Instant::now();
                let out = timed(r, "null", || self.svc_o.null());
                (t0.elapsed(), out)
            }
            Workload::Bulk64k if self.seq.is_multiple_of(2) => {
                let blob = Blob(self.payload.clone());
                let t0 = Instant::now();
                let out = timed(r, "blob", || self.svc_o.blob(blob));
                let took = t0.elapsed();
                let check = out.and_then(|n| {
                    if n == BLOB_LEN as u64 {
                        Ok(())
                    } else {
                        Err(format!("blob returned {n}, sent {BLOB_LEN} bytes"))
                    }
                });
                (took, check)
            }
            Workload::Bulk64k => {
                let t0 = Instant::now();
                let out = timed(r, "get_blob", || self.svc_o.get_blob(BLOB_LEN as u64));
                let took = t0.elapsed();
                let check = out.and_then(|got| {
                    if got.0 == self.expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "get_blob({BLOB_LEN}) returned {} bytes of unexpected content",
                            got.0.len()
                        ))
                    }
                });
                (took, check)
            }
            Workload::RefChurn => {
                let t0 = Instant::now();
                let out = self.ref_cycle(r);
                (t0.elapsed(), out)
            }
        }
    }

    /// One full reference cycle: O exports a fresh counter to the client,
    /// the client calls it and passes it on to S, and both drop it.
    fn ref_cycle(&self, r: &mut CallerResult) -> Result<(), String> {
        let c = timed(r, "mint", || self.svc_o.mint())?;
        let v = timed(r, "add", || c.add(1))?;
        if v != 1 {
            return Err(format!("add(1) on a fresh counter returned {v}"));
        }
        timed(r, "take_ref", || self.svc_s.take_ref(c.clone()))?;
        drop(c);
        Ok(())
    }
}

/// Times one top-level stub call.
fn timed<T>(
    r: &mut CallerResult,
    method: &'static str,
    call: impl FnOnce() -> NetResult<T>,
) -> Result<T, String> {
    let t0 = Instant::now();
    let out = call();
    let took = t0.elapsed();
    r.stub_ns += took.as_nanos();
    r.stub_calls += 1;
    if took > SLOW_CALL {
        *r.slow_calls.entry(method).or_default() += 1;
    }
    out.map_err(|e| format!("{method}: {e}"))
}

/// The caller threads. Each runs its loop on command and reports back on
/// one shared channel, so the main thread can do other work while it
/// waits.
pub struct Callers {
    workload: Workload,
    commands: Vec<Sender<Stop>>,
    threads: Vec<JoinHandle<()>>,
    reports: Receiver<Report>,
}

impl Callers {
    pub fn spawn(workload: Workload, seed: u64, o: &BenchClient, s: &BenchClient) -> Callers {
        let (report_tx, reports) = std::sync::mpsc::channel();
        let mut commands = Vec::new();
        let mut threads = Vec::new();
        for i in 0..CALLERS {
            let (tx, rx) = std::sync::mpsc::channel::<Stop>();
            let mut caller = Caller {
                id: i,
                workload,
                svc_o: o.clone(),
                svc_s: s.clone(),
                payload: if workload == Workload::Bulk64k {
                    payload(seed, i)
                } else {
                    Vec::new()
                },
                expected: vec![GET_BLOB_FILL; BLOB_LEN],
                seq: 0,
            };
            let report_tx = report_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("bench-caller-{i}"))
                .spawn(move || {
                    for stop in rx {
                        let result = caller.run(stop, &report_tx);
                        if report_tx.send(Report::Done { caller: i, result }).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn a caller thread");
            commands.push(tx);
            threads.push(thread);
        }
        Callers {
            workload,
            commands,
            threads,
            reports,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Starts every caller's loop.
    pub fn start(&self, stop: Stop) {
        for tx in &self.commands {
            tx.send(stop).expect("caller thread is alive");
        }
    }

    /// The next report, if one arrives within `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<Report> {
        match self.reports.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(e) => panic!("caller threads died: {e}"),
        }
    }

    /// Runs every caller's loop to `stop` and merges their results.
    pub fn run(&self, stop: Stop) -> CallerResult {
        self.start(stop);
        let mut all = CallerResult::default();
        let mut pending = CALLERS;
        while pending > 0 {
            if let Some(Report::Done { result, .. }) = self.recv(Duration::from_secs(3600)) {
                all.merge(result);
                pending -= 1;
            }
        }
        all
    }

    pub fn join(self) {
        drop(self.commands);
        for t in self.threads {
            t.join().expect("caller thread panicked");
        }
    }
}
