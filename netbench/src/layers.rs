//! Layer costs measured in isolation, on the same values and frame sizes
//! an op of the workload carries: pickling (wire), one frame round trip
//! over raw TCP connections (transport), and a raw RPC echo through the
//! reactor server (rpc).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use netobj_bench::CounterClient;
use netobj_rpc::msg::{Reply, Request, RpcMsg};
use netobj_rpc::{CallClient, RemoteError, RpcServer};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Endpoint, Transport};
use netobj_wire::frame::{encode_frame, FrameDecoder};
use netobj_wire::pickle::Blob;
use netobj_wire::{ObjIx, Pickle, PickleReader, PickleWriter, SpaceId, TypeList, WireRep};

use crate::ops::{self, Workload, BLOB_LEN, GET_BLOB_FILL};

/// Round trips timed per call shape for the medians below.
const ROUND_TRIPS: usize = 2000;
/// Each pickling or framing figure is timed over at least this long.
const MIN_TIMING: Duration = Duration::from_millis(60);

/// One argument or result value as the stubs pickle it.
enum Val {
    Unit,
    U64(u64),
    I64(i64),
    Blob(Blob),
    /// A network object reference: the record `Handle::marshal` writes.
    Ref(WireRep, Endpoint, TypeList),
}

impl Val {
    fn encode(&self, w: &mut PickleWriter) {
        match self {
            Val::Unit => ().pickle(w),
            Val::U64(v) => v.pickle(w),
            Val::I64(v) => v.pickle(w),
            Val::Blob(b) => b.pickle(w),
            Val::Ref(rep, ep, types) => {
                w.begin_record(3);
                w.put_wirerep(*rep);
                ep.pickle(w);
                types.pickle(w);
            }
        }
    }

    fn decode(&self, r: &mut PickleReader<'_>) -> netobj_wire::Result<()> {
        match self {
            Val::Unit => <()>::unpickle(r),
            Val::U64(_) => u64::unpickle(r).map(drop),
            Val::I64(_) => i64::unpickle(r).map(drop),
            Val::Blob(_) => Blob::unpickle(r).map(drop),
            Val::Ref(..) => {
                r.expect_record(3)?;
                r.get_wirerep()?;
                Endpoint::unpickle(r)?;
                TypeList::unpickle(r).map(drop)
            }
        }
    }
}

/// One stub call of the op cycle: its method, arguments and result.
struct Call {
    method: u32,
    args: Vec<Val>,
    result: Val,
}

impl Call {
    fn pickled_args(&self) -> Vec<u8> {
        let mut w = PickleWriter::new();
        for a in &self.args {
            a.encode(&mut w);
        }
        w.into_bytes()
    }

    fn pickled_result(&self) -> Vec<u8> {
        let mut w = PickleWriter::new();
        self.result.encode(&mut w);
        w.into_bytes()
    }
}

/// The calls one op cycle makes, and how many ops the cycle holds.
fn cycle(workload: Workload, seed: u64) -> (Vec<Call>, f64) {
    let counter_ref = || {
        Val::Ref(
            WireRep::new(SpaceId::fresh(), ObjIx(17)),
            Endpoint::tcp("127.0.0.1:40000"),
            TypeList::from_names(&[CounterClient::TYPE_NAME]),
        )
    };
    match workload {
        Workload::NullTcp => (
            vec![Call {
                method: 0,
                args: vec![],
                result: Val::Unit,
            }],
            1.0,
        ),
        Workload::Bulk64k => (
            vec![
                Call {
                    method: 3,
                    args: vec![Val::Blob(Blob(ops::payload(seed, 0)))],
                    result: Val::U64(BLOB_LEN as u64),
                },
                Call {
                    method: 4,
                    args: vec![Val::U64(BLOB_LEN as u64)],
                    result: Val::Blob(Blob(vec![GET_BLOB_FILL; BLOB_LEN])),
                },
            ],
            2.0,
        ),
        Workload::RefChurn => (
            vec![
                Call {
                    method: 10,
                    args: vec![],
                    result: counter_ref(),
                },
                Call {
                    method: 0,
                    args: vec![Val::I64(1)],
                    result: Val::I64(1),
                },
                Call {
                    method: 6,
                    args: vec![counter_ref()],
                    result: Val::Unit,
                },
            ],
            1.0,
        ),
    }
}

/// Mean time of one run of `f`, repeated until [`MIN_TIMING`] has passed.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    f();
    let mut n = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        let took = t0.elapsed();
        if took >= MIN_TIMING {
            return took.as_nanos() as f64 / n as f64;
        }
        n *= 2;
    }
}

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_nanos() as f64 / 1e3
}

/// Per-op layer costs. Times are per op of the workload: a cycle's cost
/// divided by the ops in it.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_ns: f64,
    pub frame_rtt_us: f64,
    pub raw_call_us: f64,
}

pub fn measure(workload: Workload, seed: u64) -> LayerCosts {
    let (calls, ops_per_cycle) = cycle(workload, seed);
    let encode_ns = mean_ns(|| {
        for c in &calls {
            std::hint::black_box(c.pickled_args());
            std::hint::black_box(c.pickled_result());
        }
    });
    let pickles: Vec<(Vec<u8>, Vec<u8>)> = calls
        .iter()
        .map(|c| (c.pickled_args(), c.pickled_result()))
        .collect();
    let decode_ns = mean_ns(|| {
        for (c, (args, result)) in calls.iter().zip(&pickles) {
            let mut r = PickleReader::new(args);
            for a in &c.args {
                a.decode(&mut r).expect("decode pickled argument");
            }
            let mut r = PickleReader::new(result);
            c.result.decode(&mut r).expect("decode pickled result");
        }
    });

    let target = WireRep::new(SpaceId::fresh(), ObjIx::FIRST_USER);
    let caller = SpaceId::fresh();
    let requests: Vec<Bytes> = calls
        .iter()
        .zip(&pickles)
        .map(|(c, (args, _))| {
            RpcMsg::Request(Request {
                call_id: 1,
                caller,
                target,
                method: c.method,
                args: Bytes::from(args.clone()),
                trace_id: 1,
                span_id: 2,
            })
            .encode()
        })
        .collect();
    let frame_ns = mean_ns(|| {
        for req in &requests {
            let mut out = BytesMut::new();
            encode_frame(&mut out, req).expect("frame fits");
            let mut dec = FrameDecoder::default();
            dec.extend(&out);
            std::hint::black_box(dec.next_frame().expect("well-formed frame"));
        }
    });

    let replies: Vec<Bytes> = pickles
        .iter()
        .map(|(_, result)| {
            RpcMsg::Reply(Reply {
                call_id: 1,
                outcome: Ok(Bytes::from(result.clone())),
                needs_ack: false,
            })
            .encode()
        })
        .collect();
    let frame_rtt_us = frame_round_trips(&requests, &replies);
    let raw_call_us = raw_calls(&pickles, target);

    LayerCosts {
        encode_ns: encode_ns / ops_per_cycle,
        decode_ns: decode_ns / ops_per_cycle,
        frame_ns: frame_ns / ops_per_cycle,
        frame_rtt_us: frame_rtt_us / ops_per_cycle,
        raw_call_us: raw_call_us / ops_per_cycle,
    }
}

/// Sum over the cycle's calls of the median round trip of the request
/// frame out and the reply frame back, between two raw blocking `Tcp`
/// connections with an echo thread on the far end.
fn frame_round_trips(requests: &[Bytes], replies: &[Bytes]) -> f64 {
    let listener = Tcp
        .listen(&Endpoint::tcp("127.0.0.1:0"))
        .expect("listen on loopback");
    let ep = listener.local_endpoint();
    // Each request's first payload byte selects the reply to send back.
    let replies = replies.to_vec();
    let echo = std::thread::Builder::new()
        .name("bench-echo".into())
        .spawn(move || {
            let conn = listener.accept().expect("accept the echo client");
            while let Ok(frame) = conn.recv() {
                if conn.send(replies[frame[0] as usize].clone()).is_err() {
                    break;
                }
            }
        })
        .expect("spawn the echo thread");
    let conn = Tcp.connect(&ep).expect("connect to the echo thread");
    let mut total = 0.0;
    for (i, req) in requests.iter().enumerate() {
        let mut frame = req.to_vec();
        frame[0] = i as u8;
        let frame = Bytes::from(frame);
        let mut samples = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let t0 = Instant::now();
            conn.send(frame.clone()).expect("send to echo");
            conn.recv().expect("echo reply");
            samples.push(t0.elapsed());
        }
        total += median_us(samples);
    }
    conn.close();
    echo.join().expect("echo thread panicked");
    total
}

/// Sum over the cycle's calls of the median raw `CallClient` call to an
/// `RpcServer` on loopback TCP (so through the reactor) whose dispatcher
/// returns a result as large as the real one.
fn raw_calls(pickles: &[(Vec<u8>, Vec<u8>)], target: WireRep) -> f64 {
    let result_lens: Vec<usize> = pickles.iter().map(|(_, r)| r.len()).collect();
    let dispatcher: Arc<dyn netobj_rpc::Dispatcher> = Arc::new(
        move |_c: SpaceId, _t: WireRep, m: u32, _a: &[u8]| -> Result<Vec<u8>, RemoteError> {
            Ok(vec![0u8; result_lens[m as usize]])
        },
    );
    let listener = Tcp
        .listen(&Endpoint::tcp("127.0.0.1:0"))
        .expect("listen on loopback");
    let ep = listener.local_endpoint();
    let mut server = RpcServer::start(listener, dispatcher, 4);
    let conn = Tcp.connect(&ep).expect("connect to the raw server");
    let client = CallClient::new(Arc::from(conn), SpaceId::fresh());
    let mut total = 0.0;
    for (i, (args, _)) in pickles.iter().enumerate() {
        let args = Bytes::from(args.clone());
        let mut samples = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let t0 = Instant::now();
            let reply = client
                .call(target, i as u32, args.clone())
                .expect("raw echo call");
            samples.push(t0.elapsed());
            assert_eq!(reply.len(), pickles[i].1.len(), "raw reply size");
        }
        total += median_us(samples);
    }
    client.close();
    server.stop();
    total
}
