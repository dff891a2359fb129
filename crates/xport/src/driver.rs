//! [`SessionDriver`]: a dedicated thread pumping one [`LinkEngine`].
//!
//! The driver owns the engine behind a mutex and spins a service loop:
//! while the engine reports progress it services back-to-back; when the
//! link goes quiet it sleeps briefly, and a long run of fruitless
//! passes is tallied as a *driver stall* — the "is this endpoint
//! actually moving?" health signal.  The owning thread keeps the
//! ingress/delivery API and can take the engine back intact with
//! [`SessionDriver::shutdown`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use p5_ppp::SessionEvent;
use p5_stream::{Observable, Offer, Snapshot};

use crate::engine::LinkEngine;
use crate::lock;

/// Idle passes before the loop sleeps instead of spinning.
const SPIN_PASSES: u32 = 64;
/// Sleep per quiet pass.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// Consecutive fruitless passes that count as one driver stall.
const STALL_THRESHOLD: u32 = 256;

struct Inner {
    engine: Mutex<LinkEngine>,
    stop: AtomicBool,
    stalls: AtomicU64,
}

/// A per-link pump thread plus the handle the owner keeps.
pub struct SessionDriver {
    /// `None` only transiently during [`SessionDriver::shutdown`].
    inner: Option<Arc<Inner>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl SessionDriver {
    /// Take ownership of `engine` and start pumping it.
    pub fn spawn(engine: LinkEngine) -> Self {
        let label = engine.describe();
        let inner = Arc::new(Inner {
            engine: Mutex::new(engine),
            stop: AtomicBool::new(false),
            stalls: AtomicU64::new(0),
        });
        let worker = inner.clone();
        let thread = thread::Builder::new()
            .name(format!("p5-xport {label}"))
            .spawn(move || {
                let mut quiet: u32 = 0;
                while !worker.stop.load(Ordering::Relaxed) {
                    let progress = lock(&worker.engine).service();
                    if progress {
                        quiet = 0;
                        // Hand the core over between passes.  A bare
                        // relock wins the (unfair) mutex back almost
                        // every time, so on few-core hosts a busy
                        // driver convoys the owner thread's offer/
                        // delivery calls into scheduler-quantum
                        // latencies; the yield costs nothing when
                        // cores are plentiful and restores round-robin
                        // when they are not.
                        thread::yield_now();
                        continue;
                    }
                    quiet += 1;
                    if quiet.is_multiple_of(STALL_THRESHOLD) {
                        worker.stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    if quiet >= SPIN_PASSES {
                        thread::sleep(IDLE_SLEEP);
                    }
                }
            })
            .expect("spawn p5-xport driver thread");
        SessionDriver {
            inner: Some(inner),
            thread: Some(thread),
        }
    }

    fn inner(&self) -> &Arc<Inner> {
        self.inner.as_ref().expect("inner present until shutdown")
    }

    /// Offer one frame at the admission boundary (see
    /// [`LinkEngine::offer`]).
    pub fn offer(&self, protocol: u16, payload: &[u8]) -> Offer {
        lock(&self.inner().engine).offer(protocol, payload)
    }

    /// Frames delivered since the last call.
    pub fn take_deliveries(&self) -> Vec<(u16, Vec<u8>)> {
        lock(&self.inner().engine).take_deliveries()
    }

    /// Session events since the last call.
    pub fn poll_events(&self) -> Vec<SessionEvent> {
        lock(&self.inner().engine).poll_events()
    }

    /// IPCP open (session) / pipe up (transparent)?
    pub fn is_network_up(&self) -> bool {
        lock(&self.inner().engine).is_network_up()
    }

    /// Block (politely) until the network phase opens, up to `limit`.
    pub fn await_network_up(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            if self.is_network_up() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fruitless-spin episodes observed by the pump thread.
    pub fn driver_stalls(&self) -> u64 {
        self.inner().stalls.load(Ordering::Relaxed)
    }

    fn stop_and_join(&mut self) {
        if let Some(inner) = &self.inner {
            inner.stop.store(true, Ordering::Relaxed);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop the pump thread and hand the engine back — counters,
    /// session state and transport intact.
    pub fn shutdown(mut self) -> LinkEngine {
        self.stop_and_join();
        let inner = self.inner.take().expect("first shutdown");
        let inner = Arc::try_unwrap(inner)
            .unwrap_or_else(|_| unreachable!("driver thread joined; no other refs"));
        inner
            .engine
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Observable for SessionDriver {
    fn snapshot(&self) -> Snapshot {
        let mut snap = lock(&self.inner().engine).snapshot();
        snap.push_counter("driver_stalls", self.driver_stalls());
        snap
    }
}

impl Drop for SessionDriver {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::PipeTransport;
    use p5_core::DatapathWidth;
    use p5_ppp::NegotiationProfile;

    #[test]
    fn paired_drivers_bring_the_network_up_and_exchange() {
        let (ta, tb) = PipeTransport::pair();
        let a = SessionDriver::spawn(LinkEngine::new(
            DatapathWidth::W32,
            &NegotiationProfile::new()
                .magic(0xA)
                .ip([10, 9, 0, 1])
                .restart_period(64)
                .max_configure(60),
            Box::new(ta),
        ));
        let b = SessionDriver::spawn(LinkEngine::new(
            DatapathWidth::W32,
            &NegotiationProfile::new()
                .magic(0xB)
                .ip([10, 9, 0, 2])
                .restart_period(64)
                .max_configure(60),
            Box::new(tb),
        ));
        assert!(a.await_network_up(Duration::from_secs(10)), "a negotiates");
        assert!(b.await_network_up(Duration::from_secs(10)), "b negotiates");

        let datagram = vec![0x45u8; 256];
        let mut sent = 0;
        while sent < 20 {
            if a.offer(0x0021, &datagram).is_admitted() {
                sent += 1;
            } else {
                thread::sleep(Duration::from_micros(100));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 20 && Instant::now() < deadline {
            got.extend(b.take_deliveries());
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.len(), 20, "all admitted datagrams deliver");
        assert!(got.iter().all(|(_, p)| p == &datagram), "no corruption");

        let engine = a.shutdown();
        let snap = engine.snapshot();
        assert!(snap.get("bytes_out").unwrap() > 0);
        assert!(snap.get("delivered_bytes").is_some());
        drop(b);
    }
}
