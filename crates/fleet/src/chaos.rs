//! Deterministic network-fault injection for resilience drills.
//!
//! [`ChaosTransport`] wraps a real socket and, driven by a seeded
//! generator, cuts it mid-frame: a write may deliver only a prefix
//! before the socket is severed, a read may sever before returning, and
//! either may stall briefly first. Faults are a deterministic function
//! of the seed and the operation sequence, so a chaos run is replayable.
//! The wrapped socket must implement [`Severable`] — severing (not just
//! erroring) is what makes the *peer* observe the cut too, which is the
//! failure mode reconnection logic has to survive.
//!
//! Used by `fleet-soak`'s chaos phase and `tests/resilience.rs` to check
//! that a dialing producer ([`crate::IngestProducer::dial`]) and the
//! checkpoint path yield byte-identical verdicts under connection loss.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A transport whose peer can be made to observe a hard cut.
pub trait Severable {
    /// Hard-closes both directions, as a crashed process or dropped
    /// link would.
    fn sever(&self);
}

impl Severable for TcpStream {
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

#[cfg(unix)]
impl Severable for UnixStream {
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Fault rates, each rolled independently per read/write call.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability a write delivers a random prefix, severs the socket
    /// and fails with `ConnectionReset` — a mid-frame cut.
    pub write_cut: f64,
    /// Probability a read severs the socket and fails with
    /// `ConnectionReset`.
    pub read_cut: f64,
    /// Probability an operation stalls for [`ChaosConfig::delay_us`]
    /// first.
    pub delay: f64,
    /// Stall length in microseconds.
    pub delay_us: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            write_cut: 0.01,
            read_cut: 0.01,
            delay: 0.05,
            delay_us: 50,
        }
    }
}

/// A fault-injecting wrapper around a severable transport.
#[derive(Debug)]
pub struct ChaosTransport<C: Read + Write + Severable> {
    inner: C,
    config: ChaosConfig,
    rng: u64,
    cuts: u64,
    delays: u64,
}

impl<C: Read + Write + Severable> ChaosTransport<C> {
    /// Wraps `inner`; all faults derive from `seed`.
    pub fn new(inner: C, config: ChaosConfig, seed: u64) -> Self {
        ChaosTransport {
            inner,
            config,
            rng: seed | 1,
            cuts: 0,
            delays: 0,
        }
    }

    /// Connections severed by injected faults so far.
    pub fn cuts(&self) -> u64 {
        self.cuts
    }

    /// Stalls injected so far.
    pub fn delays(&self) -> u64 {
        self.delays
    }

    /// Next uniform roll in `[0, 1)`.
    fn roll(&mut self) -> f64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 33) as f64 / (1u64 << 31) as f64
    }

    fn maybe_delay(&mut self) {
        if self.config.delay > 0.0 && self.roll() < self.config.delay {
            self.delays += 1;
            std::thread::sleep(Duration::from_micros(self.config.delay_us));
        }
    }

    fn cut(&mut self) -> std::io::Error {
        self.cuts += 1;
        self.inner.sever();
        std::io::Error::new(std::io::ErrorKind::ConnectionReset, "chaos: link severed")
    }
}

impl<C: Read + Write + Severable> Read for ChaosTransport<C> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.maybe_delay();
        if self.config.read_cut > 0.0 && self.roll() < self.config.read_cut {
            return Err(self.cut());
        }
        self.inner.read(buf)
    }
}

impl<C: Read + Write + Severable> Write for ChaosTransport<C> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.maybe_delay();
        if self.config.write_cut > 0.0 && self.roll() < self.config.write_cut {
            // Deliver a random prefix so the server sees a frame cut
            // mid-body, then sever.
            if !buf.is_empty() {
                let k = (self.roll() * buf.len() as f64) as usize;
                if k > 0 {
                    let _ = self.inner.write(&buf[..k.min(buf.len())]);
                    let _ = self.inner.flush();
                }
            }
            return Err(self.cut());
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
