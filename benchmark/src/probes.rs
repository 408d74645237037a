//! Per-layer probes that belong to no single operation: the wire framing
//! over a loopback pair, the request codec, and opening a store.

use crate::fixture::{region_query, Fixture, DATASET};
use crate::harness::ms;
use crate::spans::Recorder;
use crate::stats::median;
use hpmdr_core::prelude::open_store;
use hpmdr_netstore::wire::{read_frame, write_frame};
use hpmdr_netstore::{Frame, FrameLimits};
use hpmdr_server::QueryRequest;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Payload of the large-frame probe: a full-domain f32 answer at 128³.
const LARGE_PAYLOAD: usize = 8 << 20;
const LARGE_FRAMES: usize = 8;
const SMALL_FRAMES: usize = 2000;
const IO_DEADLINE: Duration = Duration::from_secs(30);

/// Read every probe frame; returns the seconds spent in `read_frame` per
/// large frame, and in total over the small ones.
fn read_side(listener: TcpListener) -> Result<(Vec<f64>, f64), String> {
    let (mut stream, _) = listener.accept().map_err(|e| format!("wire probe: {e}"))?;
    let limits = FrameLimits::default();
    let mut large = Vec::new();
    let mut small = 0.0;
    for i in 0..LARGE_FRAMES + SMALL_FRAMES {
        let t = Instant::now();
        let frame = read_frame(&mut stream, &limits, Instant::now() + IO_DEADLINE)
            .map_err(|e| format!("wire probe: {e}"))?
            .ok_or("wire probe: peer closed early")?;
        let took = t.elapsed().as_secs_f64();
        if i < LARGE_FRAMES {
            if frame.payload.len() != LARGE_PAYLOAD {
                return Err("wire probe: payload length changed in flight".to_string());
            }
            large.push(took);
        } else {
            small += took;
        }
    }
    Ok((large, small))
}

/// Write every probe frame; returns the seconds spent in `write_frame`
/// per large frame.
fn write_side(mut stream: TcpStream) -> Result<Vec<f64>, String> {
    let big = Frame::with_payload(3, b"{}".to_vec(), vec![0xa5; LARGE_PAYLOAD]);
    let mut write_s = Vec::new();
    for _ in 0..LARGE_FRAMES {
        let t = Instant::now();
        write_frame(&mut stream, &big, Instant::now() + IO_DEADLINE)
            .map_err(|e| format!("wire probe: {e}"))?;
        write_s.push(t.elapsed().as_secs_f64());
    }
    let small = Frame::new(1, vec![b' '; 64]);
    for _ in 0..SMALL_FRAMES {
        write_frame(&mut stream, &small, Instant::now() + IO_DEADLINE)
            .map_err(|e| format!("wire probe: {e}"))?;
    }
    Ok(write_s)
}

/// `wire.*`: frames written on one end of a loopback connection and read
/// on the other, each side timing only its own calls.
pub fn wire(rec: &mut Recorder) -> Result<(), String> {
    let io = |e: std::io::Error| format!("wire probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    // Connecting before the reader exists parks the connection in the
    // listener's backlog, so a failure here cannot strand a thread in
    // `accept`.
    let stream = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let (written, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || read_side(listener));
        let written = write_side(stream);
        (written, reader.join().expect("wire reader does not panic"))
    });
    let (write_s, (read_large_s, read_small_s)) = (written?, read?);
    let mbps = |seconds: &[f64]| LARGE_PAYLOAD as f64 / 1e6 / median(seconds);
    rec.count("wire.write_frame_mbps", mbps(&write_s));
    rec.count("wire.read_frame_mbps", mbps(&read_large_s));
    rec.count(
        "wire.small_frame_us",
        read_small_s * 1e6 / SMALL_FRAMES as f64,
    );
    Ok(())
}

/// `server.request_json_us`: one QUERY header encoded and decoded.
pub fn request_json(fx: &Fixture, rec: &mut Recorder) -> Result<(), String> {
    let request = QueryRequest::new(DATASET, "f32", &region_query(&fx.queries[0], fx.roi_target));
    let mut us = Vec::new();
    for _ in 0..1000 {
        let t = Instant::now();
        let bytes = serde_json::to_vec(&request).map_err(|e| e.to_string())?;
        let back: QueryRequest = serde_json::from_slice(&bytes).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if back != request {
            return Err("QUERY header does not survive its own codec".to_string());
        }
    }
    rec.count("server.request_json_us", median(&us));
    Ok(())
}

/// `storage.open_ms`: opening the small-chunk store (manifest parse and
/// skeleton build for every chunk).
pub fn storage_open(fx: &Fixture, rec: &mut Recorder) -> Result<(), String> {
    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let store = open_store(&fx.store_small).map_err(|e| e.to_string())?;
        open_ms.push(ms(t.elapsed()));
        drop(store);
    }
    rec.count("storage.open_ms", median(&open_ms));
    Ok(())
}
