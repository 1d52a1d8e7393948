//! A deterministic network-chaos proxy for resilience testing.
//!
//! [`ChaosProxy`] is a frame-aware TCP relay that sits between a client and
//! an `acq-server` and injects faults on a fixed, seeded schedule: added
//! latency, connections cut mid-frame (in either direction), and one-way
//! partitions that swallow traffic without closing the socket. Because the
//! schedule is a pure function of [`ChaosConfig::seed`] and the connection
//! index, a failing chaos run reproduces exactly.
//!
//! The proxy understands the protocol's length-prefixed block framing just
//! enough to cut *inside* a frame — the cruellest place to lose a
//! connection, and the case that forces the dedup window to earn its keep: a
//! torn `UpdateOk` means the server applied the batch but the client never
//! learned, so only the idempotency token keeps the retry from applying it
//! twice (`tests/chaos_resilience.rs` asserts exactly that).
//!
//! Everything here is plain `std::net` plus the workspace's `acq_sync`
//! shim — no extra dependencies, usable from any test.

use acq_sync::sync::atomic::{AtomicBool, Ordering};
use acq_sync::sync::{Arc, Mutex, PoisonError};
use acq_sync::thread::JoinHandle;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Largest block the proxy will buffer when relaying; anything larger is
/// treated as a broken stream and the connection is dropped.
const MAX_RELAY_BLOCK: u32 = 1 << 20;

/// Tuning of the fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault schedule; same seed, same faults.
    pub seed: u64,
    /// Latency injected per relayed frame on delay-plan connections.
    pub delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { seed: 1, delay_ms: 5 }
    }
}

/// What the proxy does to one direction of one connection.
#[derive(Debug, Clone, Copy)]
enum DirectionFault {
    /// Forward every frame untouched.
    None,
    /// Sleep this long before forwarding each frame.
    DelayPerFrame(u64),
    /// Forward this many frames, then forward a 3-byte torn prefix of the
    /// next one and hard-close both sides (a mid-frame reset).
    CutAfter(u64),
    /// Forward this many frames, then silently discard the rest without
    /// closing anything (a one-way partition; the peer sees silence).
    BlackholeAfter(u64),
}

/// A chaos-injecting TCP proxy in front of one upstream server. Accepts on
/// an ephemeral local port ([`local_addr`](Self::local_addr)); each accepted
/// connection dials the upstream and relays frames under a fault plan drawn
/// from the seeded schedule. Dropping the proxy closes everything.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Starts a proxy in front of `upstream`. Connect clients to
    /// [`local_addr`](Self::local_addr).
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let streams = Arc::clone(&streams);
            acq_sync::thread::Builder::new()
                .name("acq-chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, upstream, &config, &shutdown, &streams))?
        };
        Ok(Self { local_addr, shutdown, streams, accept_handle: Some(accept_handle) })
    }

    /// The address clients should connect to instead of the real server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocked `accept` with a throwaway connection, then cut
        // every relayed stream so the relay threads unblock and exit.
        let _ = TcpStream::connect(self.local_addr);
        for stream in lock_tolerant(&self.streams).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

fn lock_tolerant<T: ?Sized>(mutex: &Mutex<T>) -> acq_sync::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The schedule: connection `i` gets plan `i % 5`, parameterised by the
/// xorshift stream seeded from `config.seed`. Returns the (upstream,
/// downstream) direction faults. Every plan in the cycle lets at least some
/// frames through before (or without) failing, so a client with enough
/// retries always makes progress — but no connection lives forever, which
/// keeps the schedule cycling through every fault type instead of parking
/// on one lucky connection.
fn plan_for(
    conn_index: u64,
    rng: &mut u64,
    config: &ChaosConfig,
) -> (DirectionFault, DirectionFault) {
    let budget = next_rand(rng) % 3;
    match conn_index % 5 {
        // The ack is torn after the server applied the write: only the
        // idempotency token saves the retry from double-applying. First in
        // the cycle so even a single-connection run exercises dedup.
        0 => (DirectionFault::None, DirectionFault::CutAfter(budget)),
        // Mostly clean: several frames relay untouched, then a late ack cut
        // retires the connection so the cycle moves on.
        1 => (DirectionFault::None, DirectionFault::CutAfter(budget + 3)),
        // The request is torn before the server saw it: a plain retry.
        2 => (DirectionFault::CutAfter(budget), DirectionFault::None),
        // One-way partition: requests vanish, the client's read timeout is
        // the only thing that gets it unstuck.
        3 => (DirectionFault::BlackholeAfter(budget), DirectionFault::None),
        // Added latency in both directions, no failure.
        _ => (
            DirectionFault::DelayPerFrame(config.delay_ms),
            DirectionFault::DelayPerFrame(config.delay_ms),
        ),
    }
}

/// xorshift64: tiny, deterministic, good enough for a fault schedule.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: &ChaosConfig,
    shutdown: &AtomicBool,
    streams: &Arc<Mutex<Vec<TcpStream>>>,
) {
    let mut rng = if config.seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { config.seed };
    let mut conn_index: u64 = 0;
    loop {
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        // The relay forwards frame by frame: without `TCP_NODELAY` on both
        // legs a pipelined burst would stall here on the peer's delayed ACK.
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (up_fault, down_fault) = plan_for(conn_index, &mut rng, config);
        conn_index += 1;
        let pairs = client.try_clone().and_then(|c| server.try_clone().map(|s| (c, s)));
        let Ok((client_read, server_read)) = pairs else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            continue;
        };
        {
            let mut registry = lock_tolerant(streams);
            if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                registry.push(c);
                registry.push(s);
            }
        }
        // Two detached relay threads per connection, one per direction; they
        // exit when either side closes (or the registry is drained on drop).
        let up = acq_sync::thread::Builder::new()
            .name("acq-chaos-up".to_string())
            .spawn(move || relay(client_read, server, up_fault));
        let down = acq_sync::thread::Builder::new()
            .name("acq-chaos-down".to_string())
            .spawn(move || relay(server_read, client, down_fault));
        // A failed spawn tears the pair down via the dropped stream halves.
        drop((up, down));
    }
}

/// Relays length-prefixed blocks from `from` to `to` under one fault.
fn relay(mut from: TcpStream, mut to: TcpStream, fault: DirectionFault) {
    let mut forwarded: u64 = 0;
    while let Some(block) = read_block(&mut from) {
        match fault {
            DirectionFault::None => {}
            DirectionFault::DelayPerFrame(ms) => {
                acq_sync::thread::sleep(Duration::from_millis(ms));
            }
            DirectionFault::CutAfter(n) => {
                if forwarded >= n {
                    // Forward a torn prefix of this frame, then reset both
                    // sides: the receiver sees the worst possible failure, a
                    // connection lost mid-frame.
                    let torn = &block[..block.len().min(3)];
                    let _ = to.write_all(torn);
                    let _ = to.flush();
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            DirectionFault::BlackholeAfter(n) => {
                if forwarded >= n {
                    // Swallow silently: a one-way partition. Keep reading so
                    // the sender never notices at the transport level.
                    forwarded += 1;
                    continue;
                }
            }
        }
        if to.write_all(&block).is_err() || to.flush().is_err() {
            break;
        }
        forwarded += 1;
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Reads one length-prefixed block (prefix included in the return); `None`
/// on any close, error, or absurd length.
fn read_block(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    let declared = u32::from_be_bytes(len_buf);
    if declared > MAX_RELAY_BLOCK {
        return None;
    }
    let mut block = vec![0u8; 4 + declared as usize];
    block[..4].copy_from_slice(&len_buf);
    if stream.read_exact(&mut block[4..]).is_err() {
        return None;
    }
    Some(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_and_cycles_through_plans() {
        let config = ChaosConfig { seed: 7, delay_ms: 5 };
        let mut rng_a = config.seed;
        let mut rng_b = config.seed;
        for conn in 0..10u64 {
            let a = plan_for(conn, &mut rng_a, &config);
            let b = plan_for(conn, &mut rng_b, &config);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same plan");
        }
        let mut rng = config.seed;
        assert!(matches!(plan_for(0, &mut rng, &config).1, DirectionFault::CutAfter(_)));
        assert!(matches!(plan_for(1, &mut rng, &config).0, DirectionFault::None));
        assert!(matches!(plan_for(3, &mut rng, &config).0, DirectionFault::BlackholeAfter(_)));
    }

    #[test]
    fn proxy_relays_cleanly_on_a_clean_plan_connection() {
        // Plan 1 (the second connection) relays several frames before its
        // late cut, so a single round-trip passes through untouched.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("upstream addr");
        let echo = std::thread::spawn(move || {
            // First upstream connection belongs to the throwaway client.
            let (first, _) = upstream.accept().expect("accept throwaway");
            drop(first);
            let (mut conn, _) = upstream.accept().expect("accept");
            let mut buf = [0u8; 9];
            conn.read_exact(&mut buf).expect("read echo input");
            conn.write_all(&buf).expect("write echo output");
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosConfig::default()).expect("start proxy");
        // Burn connection 0 (the ack-cut plan) so the next one is plan 1.
        drop(TcpStream::connect(proxy.local_addr()).expect("throwaway connection"));
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect through proxy");
        // A 5-byte block: 4-byte BE length prefix (5) + 5 payload bytes.
        let block = [0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o'];
        client.write_all(&block).expect("send block");
        let mut back = [0u8; 9];
        client.read_exact(&mut back).expect("read relayed block");
        assert_eq!(back, block);
        echo.join().expect("echo thread");
    }
}
