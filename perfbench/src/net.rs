//! Load generation over the JSON line protocol: one blocking client per
//! connection, a closed loop and an open (scheduled) loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One connection speaking one-request-per-line JSON.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Send `line` and return the response line without its newline.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(self.buf.trim_end_matches('\n'))
    }
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// A `knn` request line for node `id`.
pub fn knn_line(id: usize, k: usize) -> String {
    format!("{{\"op\":\"knn\",\"node\":\"{id}\",\"k\":{k}}}")
}

/// SplitMix64 step: per-thread request-key streams.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result of a load phase.
#[derive(Default)]
pub struct Load {
    pub attempted: u64,
    pub failed: u64,
    /// Per-request latency in ms; failed requests are `+inf`. Open-loop
    /// latencies are in due order.
    pub latency_ms: Vec<f64>,
    /// Open loop only: how late each request was sent, in ms.
    pub lag_ms: Vec<f64>,
    pub wall_s: f64,
}

impl Load {
    pub fn merge(&mut self, other: Load) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
    }
}

/// `clients` connections each send uniform-key `knn` requests back to
/// back for `seconds`.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
    nodes: usize,
    seed: u64,
) -> Load {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut rng = seed ^ (c as u64).wrapping_mul(0xA24B_AED4_963E_E407);
                    let mut client = LineClient::connect(addr).ok();
                    while Instant::now() < deadline {
                        let line = knn_line(splitmix(&mut rng) as usize % nodes, 10);
                        let t = Instant::now();
                        let ok = client.as_mut().is_some_and(|cl| cl.call(&line).is_ok_and(is_ok));
                        load.attempted += 1;
                        if ok {
                            load.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        } else {
                            load.failed += 1;
                            load.latency_ms.push(f64::INFINITY);
                            client = LineClient::connect(addr).ok();
                        }
                    }
                    load
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop client panicked"));
        }
    });
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

/// How long before a request is due its client stops sleeping and spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);

/// Sleep until shortly before `due`, then spin until it. A sleeping
/// thread wakes late by its timer slack plus the time the hypervisor
/// takes to resume a halted virtual CPU, which varies with the host's
/// load; spinning the last stretch sends each request on time, so its
/// latency measures the server, not the client's wake-up.
fn wait_until(due: Instant) {
    if let Some(ahead) = due.checked_duration_since(Instant::now() + SPIN_BEFORE_DUE) {
        std::thread::sleep(ahead);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// `count` uniform-key `knn` requests due at a fixed `rate` (1/s),
/// spread round-robin over `clients` connections. Each request is timed
/// from when it was due, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    addr: SocketAddr,
    clients: usize,
    rate: f64,
    count: usize,
    nodes: usize,
    seed: u64,
) -> Load {
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut rng = seed ^ (c as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
                    let mut client = LineClient::connect(addr).ok();
                    for i in (c..count).step_by(clients) {
                        let line = knn_line(splitmix(&mut rng) as usize % nodes, 10);
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        load.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        let ok = client.as_mut().is_some_and(|cl| cl.call(&line).is_ok_and(is_ok));
                        load.attempted += 1;
                        if ok {
                            load.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        } else {
                            load.failed += 1;
                            load.latency_ms.push(f64::INFINITY);
                            client = LineClient::connect(addr).ok();
                        }
                    }
                    load
                })
            })
            .collect();
        let per_client: Vec<Load> =
            handles.into_iter().map(|h| h.join().expect("open-loop client panicked")).collect();
        // Client c sent requests c, c + clients, ...: interleave their
        // latencies back into due order.
        let mut due_order = Vec::with_capacity(count);
        for j in 0..count.div_ceil(clients) {
            due_order.extend(per_client.iter().filter_map(|l| l.latency_ms.get(j)));
        }
        for load in per_client {
            total.merge(load);
        }
        total.latency_ms = due_order;
    });
    total.wall_s = start.elapsed().as_secs_f64();
    total
}
