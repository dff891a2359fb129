//! The Protocol OAM block: "an efficient interface for control and
//! status information to be exchanged between an external
//! microcontroller and the internal Receiver and Transmitter blocks".
//!
//! A memory-mapped register file plus interrupt logic.  The host side
//! (a MicroBlaze in the paper's SoPC vision) talks through the
//! [`MmioBus`] trait; the datapath side updates status and counters
//! through a shared [`OamHandle`].
//!
//! The file is split by writer.  The host-programmed configuration
//! ([`OamState`]) sits behind a lock that only host writes take for
//! writing.  STATUS, the nine counters and INT_PENDING are atomics the
//! device stores into, so the datapath takes no lock per frame.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Register addresses (word-aligned byte offsets).
pub mod regs {
    /// Control register.
    pub const CTRL: u32 = 0x00;
    /// Status register (read-only).
    pub const STATUS: u32 = 0x04;
    /// Programmable HDLC address octet (MAPOS compatibility).
    pub const ADDRESS: u32 = 0x08;
    /// Maximum receive body length.
    pub const MAX_BODY: u32 = 0x0C;
    /// Interrupt enable mask.
    pub const INT_ENABLE: u32 = 0x10;
    /// Interrupt pending (write-1-to-clear).
    pub const INT_PENDING: u32 = 0x14;
    /// Counters (read-only).
    pub const TX_FRAMES: u32 = 0x20;
    pub const RX_FRAMES: u32 = 0x24;
    pub const FCS_ERRORS: u32 = 0x28;
    pub const ABORTS: u32 = 0x2C;
    pub const RUNTS: u32 = 0x30;
    pub const GIANTS: u32 = 0x34;
    pub const ADDR_MISMATCHES: u32 = 0x38;
    pub const HEADER_ERRORS: u32 = 0x3C;
    /// Host submissions refused because the transmit queue was full.
    pub const TX_REJECTS: u32 = 0x40;
    /// Number of counter registers, `TX_FRAMES..=TX_REJECTS` one word
    /// apart.
    pub const COUNTERS: usize = 9;
}

/// CTRL register bits.
pub mod ctrl {
    /// Enable the transmitter.
    pub const TX_ENABLE: u32 = 1 << 0;
    /// Enable the receiver.
    pub const RX_ENABLE: u32 = 1 << 1;
    /// Accept frames regardless of address.
    pub const PROMISCUOUS: u32 = 1 << 2;
    /// Use FCS-16 instead of FCS-32.
    pub const FCS16: u32 = 1 << 3;
    /// Diagnostic loopback: route the transmitter's wire output straight
    /// into the receiver.
    pub const LOOPBACK: u32 = 1 << 4;
}

/// Interrupt causes (bit positions in INT_ENABLE / INT_PENDING).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Interrupt {
    /// A good frame reached shared memory.
    RxFrame = 1 << 0,
    /// Any receive defect (FCS, abort, runt, giant, header).
    RxError = 1 << 1,
    /// Transmit queue drained.
    TxDone = 1 << 2,
}

/// The host-programmed configuration registers.
#[derive(Debug, Default)]
pub struct OamState {
    pub ctrl: u32,
    pub address: u8,
    pub max_body: u32,
    pub int_enable: u32,
    /// Recent host bus writes `(addr, value)`, capped at
    /// [`OamState::WRITE_LOG_CAP`]; drained by [`OamHandle::take_writes`]
    /// so a tracing device can stamp them as `OamWrite` events.
    pub write_log: VecDeque<(u32, u32)>,
}

impl OamState {
    /// Bound on the retained bus-write log: old entries are dropped so an
    /// untraced device never accumulates memory.
    pub const WRITE_LOG_CAP: usize = 64;
}

/// Host-side bus interface (the microprocessor interface of Figure 2).
pub trait MmioBus {
    fn read(&self, addr: u32) -> u32;
    fn write(&mut self, addr: u32, value: u32);
}

#[derive(Debug)]
struct OamShared {
    state: RwLock<OamState>,
    /// Bumped on every host write to the configuration.  The datapath
    /// polls this with one atomic load per clock and only takes the
    /// lock to re-read its cached configuration when the count moved —
    /// registers stay "live" without a lock acquisition per cycle.
    version: AtomicU64,
    /// STATUS: bit 0 transmitter busy, bit 1 receiver mid-frame.
    status: AtomicU32,
    int_pending: AtomicU32,
    /// `TX_FRAMES..=TX_REJECTS`, in address order.
    counters: [AtomicU32; regs::COUNTERS],
}

impl OamShared {
    /// The registers for reading, recovering the guard if a writer
    /// panicked: a panic inside `with_state` must not wedge every later
    /// reader.
    fn read(&self) -> RwLockReadGuard<'_, OamState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The registers for writing, with the same poison recovery.
    fn write(&self) -> RwLockWriteGuard<'_, OamState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The device-written register at `addr` (STATUS, INT_PENDING or a
    /// counter); `None` for a host-programmed or unmapped address.
    fn device_reg(&self, addr: u32) -> Option<u32> {
        let reg = match addr {
            regs::STATUS => &self.status,
            regs::INT_PENDING => &self.int_pending,
            regs::TX_FRAMES..=regs::TX_REJECTS if addr.is_multiple_of(4) => {
                &self.counters[((addr - regs::TX_FRAMES) / 4) as usize]
            }
            _ => return None,
        };
        Some(reg.load(Ordering::Relaxed))
    }
}

/// Shared handle to the OAM register file (datapath and host both hold
/// clones of one `Arc`).
#[derive(Debug, Clone)]
pub struct OamHandle(Arc<OamShared>);

impl Default for OamHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl OamHandle {
    pub fn new() -> Self {
        let state = OamState {
            ctrl: ctrl::TX_ENABLE | ctrl::RX_ENABLE,
            address: 0xFF,
            max_body: 1504,
            ..Default::default()
        };
        Self(Arc::new(OamShared {
            state: RwLock::new(state),
            version: AtomicU64::new(0),
            status: AtomicU32::new(0),
            int_pending: AtomicU32::new(0),
            counters: Default::default(),
        }))
    }

    /// Configuration counter: changes whenever the host wrote a
    /// register; the device's own stores never move it.  Read this
    /// *before* `read_state` when caching — a write landing between the
    /// two makes the cache stale-versioned, so it reloads on the next
    /// poll rather than being missed.
    pub fn version(&self) -> u64 {
        self.0.version.load(Ordering::Acquire)
    }

    pub fn read_state<R>(&self, f: impl FnOnce(&OamState) -> R) -> R {
        f(&self.0.read())
    }

    pub fn with_state<R>(&self, f: impl FnOnce(&mut OamState) -> R) -> R {
        let r = f(&mut self.0.write());
        self.0.version.fetch_add(1, Ordering::Release);
        r
    }

    /// The device's side of the register file: STATUS and the counters
    /// (`TX_FRAMES..=TX_REJECTS` order), as plain stores — no lock and no
    /// version bump, so the device never invalidates its own cache.
    pub fn publish(&self, status: u32, counters: [u32; regs::COUNTERS]) {
        self.0.status.store(status, Ordering::Relaxed);
        for (reg, value) in self.0.counters.iter().zip(counters) {
            reg.store(value, Ordering::Relaxed);
        }
    }

    /// Raise an interrupt cause; it latches into INT_PENDING regardless
    /// of the enable mask (the mask gates the output line).  Always an
    /// atomic OR, even when the bit is already latched: skipping it after
    /// a plain load races the host's write-1-to-clear (a count published
    /// just before the acknowledge could be left with no cause latched),
    /// and measured no faster.  Release pairs with the acknowledge's
    /// Acquire, so a host that acknowledges and then reads a counter sees
    /// every count published before the cause it cleared.
    pub fn raise(&self, cause: Interrupt) {
        self.0.int_pending.fetch_or(cause as u32, Ordering::Release);
    }

    /// Is the interrupt output line asserted?
    pub fn irq_asserted(&self) -> bool {
        self.0.int_pending.load(Ordering::Relaxed) & self.read_state(|s| s.int_enable) != 0
    }

    /// Drain the host bus-write log.  Does *not* bump the version
    /// counter: draining the log is observation, not configuration, and
    /// bumping would make the datapath's config cache reload forever.
    pub fn take_writes(&self) -> Vec<(u32, u32)> {
        let mut s = self.0.write();
        s.write_log.drain(..).collect()
    }
}

impl p5_stream::Observable for OamHandle {
    /// The register file's counter view — what a host polling the OAM
    /// over the bus would see.
    fn snapshot(&self) -> p5_stream::Snapshot {
        let reg = |addr| u64::from(self.0.device_reg(addr).unwrap_or(0));
        p5_stream::Snapshot::new("oam")
            .counter("tx_frames", reg(regs::TX_FRAMES))
            .counter("rx_frames", reg(regs::RX_FRAMES))
            .counter("fcs_errors", reg(regs::FCS_ERRORS))
            .counter("aborts", reg(regs::ABORTS))
            .counter("runts", reg(regs::RUNTS))
            .counter("giants", reg(regs::GIANTS))
            .counter("addr_mismatches", reg(regs::ADDR_MISMATCHES))
            .counter("header_errors", reg(regs::HEADER_ERRORS))
            .counter("tx_rejects", reg(regs::TX_REJECTS))
            .counter("int_pending", reg(regs::INT_PENDING))
    }
}

/// The OAM as seen from the host bus.
pub struct Oam {
    pub handle: OamHandle,
}

impl Oam {
    pub fn new(handle: OamHandle) -> Self {
        Self { handle }
    }
}

impl MmioBus for Oam {
    fn read(&self, addr: u32) -> u32 {
        if let Some(value) = self.handle.0.device_reg(addr) {
            return value;
        }
        let s = self.handle.0.read();
        match addr {
            regs::CTRL => s.ctrl,
            regs::ADDRESS => s.address as u32,
            regs::MAX_BODY => s.max_body,
            regs::INT_ENABLE => s.int_enable,
            _ => 0,
        }
    }

    fn write(&mut self, addr: u32, value: u32) {
        if addr == regs::INT_PENDING {
            // Write-1-to-clear; Acquire pairs with `OamHandle::raise`.
            self.handle
                .0
                .int_pending
                .fetch_and(!value, Ordering::Acquire);
        }
        self.handle.with_state(|s| {
            match addr {
                regs::CTRL => s.ctrl = value,
                regs::ADDRESS => s.address = value as u8,
                regs::MAX_BODY => s.max_body = value,
                regs::INT_ENABLE => s.int_enable = value,
                _ => {}
            }
            if s.write_log.len() >= OamState::WRITE_LOG_CAP {
                s.write_log.pop_front();
            }
            s.write_log.push_back((addr, value));
        });
    }
}

/// Receive-side error total over the six error registers (FCS, abort,
/// runt, giant, header, address mismatch) — the "counted drops" half of
/// the paper's no-silent-corruption contract.  Summed in `u64`: six
/// saturated 32-bit registers exceed `u32::MAX`.
pub fn rx_errors(bus: &impl MmioBus) -> u64 {
    [
        regs::FCS_ERRORS,
        regs::ABORTS,
        regs::RUNTS,
        regs::GIANTS,
        regs::HEADER_ERRORS,
        regs::ADDR_MISMATCHES,
    ]
    .iter()
    .map(|&r| u64::from(bus.read(r)))
    .sum()
}

/// The health-relevant OAM counters of one link in one read — the raw
/// inputs a health scorer (`p5::obs::HealthSample`) windows into
/// per-link verdicts.  All fields are monotone run totals; a health
/// scorer diffs successive reads into windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Frames accepted by the receive side.
    pub rx_frames: u64,
    /// Receive-side errors ([`rx_errors`]) — the counted-drop total.
    pub rx_errors: u64,
    /// Frames sent by the transmit side.
    pub tx_frames: u64,
    /// Submissions refused at the transmit queue (backpressure shed).
    pub tx_rejects: u64,
}

impl HealthCounters {
    /// Receive counters from `rx`'s register bus, transmit counters from
    /// `tx`'s: the two devices of a simplex link, or one duplex end's
    /// device twice.
    pub fn read(rx: &impl MmioBus, tx: &impl MmioBus) -> Self {
        HealthCounters {
            rx_frames: u64::from(rx.read(regs::RX_FRAMES)),
            rx_errors: rx_errors(rx),
            tx_frames: u64::from(tx.read(regs::TX_FRAMES)),
            tx_rejects: u64::from(tx.read(regs::TX_REJECTS)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_error_total_does_not_overflow_at_saturated_registers() {
        let h = OamHandle::new();
        let m = u32::MAX;
        h.publish(0, [0, 0, m, m, m, m, m, m, 0]);
        let bus = Oam::new(h);
        assert_eq!(rx_errors(&bus), 6 * u64::from(u32::MAX));
        assert_eq!(
            HealthCounters::read(&bus, &bus).rx_errors,
            6 * u64::from(u32::MAX)
        );
    }

    #[test]
    fn defaults_are_sane() {
        let h = OamHandle::new();
        let oam = Oam::new(h.clone());
        assert_eq!(oam.read(regs::ADDRESS), 0xFF);
        assert_eq!(oam.read(regs::CTRL) & ctrl::TX_ENABLE, ctrl::TX_ENABLE);
        assert_eq!(oam.read(regs::MAX_BODY), 1504);
    }

    #[test]
    fn address_register_is_programmable() {
        let h = OamHandle::new();
        let mut oam = Oam::new(h.clone());
        oam.write(regs::ADDRESS, 0x03); // MAPOS unicast port 1
        assert_eq!(oam.read(regs::ADDRESS), 0x03);
        assert_eq!(h.read_state(|s| s.address), 0x03);
    }

    #[test]
    fn interrupt_latch_and_mask() {
        let h = OamHandle::new();
        let mut oam = Oam::new(h.clone());
        h.raise(Interrupt::RxFrame);
        assert_eq!(oam.read(regs::INT_PENDING), Interrupt::RxFrame as u32);
        assert!(!h.irq_asserted(), "masked by default");
        oam.write(regs::INT_ENABLE, Interrupt::RxFrame as u32);
        assert!(h.irq_asserted());
        // Write-1-to-clear.
        oam.write(regs::INT_PENDING, Interrupt::RxFrame as u32);
        assert!(!h.irq_asserted());
        assert_eq!(oam.read(regs::INT_PENDING), 0);
    }

    #[test]
    fn counters_visible_from_bus() {
        let h = OamHandle::new();
        h.publish(0b10, [1, 7, 2, 0, 0, 0, 0, 0, 3]);
        let oam = Oam::new(h);
        assert_eq!(oam.read(regs::STATUS), 0b10);
        assert_eq!(oam.read(regs::TX_FRAMES), 1);
        assert_eq!(oam.read(regs::RX_FRAMES), 7);
        assert_eq!(oam.read(regs::FCS_ERRORS), 2);
        assert_eq!(oam.read(regs::TX_REJECTS), 3);
        assert_eq!(oam.read(regs::TX_FRAMES + 2), 0, "unaligned");
    }

    #[test]
    fn version_moves_on_host_writes_only() {
        let h = OamHandle::new();
        let v0 = h.version();
        let mut oam = Oam::new(h.clone());
        oam.write(regs::ADDRESS, 0x03);
        let v1 = h.version();
        assert_ne!(v0, v1, "bus write bumps");
        h.with_state(|s| s.max_body = 1500);
        let v2 = h.version();
        assert_ne!(v1, v2, "with_state bumps");
        h.publish(1, [1; regs::COUNTERS]);
        h.raise(Interrupt::RxFrame);
        let _ = h.take_writes();
        assert_eq!(v2, h.version(), "device stores do not bump");
        oam.write(regs::INT_PENDING, Interrupt::RxFrame as u32);
        assert_ne!(v2, h.version(), "an acknowledge is a host write");
        let v3 = h.version();
        let _ = oam.read(regs::ADDRESS);
        let _ = oam.read(regs::RX_FRAMES);
        let _ = h.read_state(|s| s.ctrl);
        assert_eq!(v3, h.version(), "reads do not bump");
    }

    #[test]
    fn a_panic_inside_with_state_does_not_wedge_the_registers() {
        let h = OamHandle::new();
        let oam = Oam::new(h.clone());
        let caught = std::panic::catch_unwind(|| {
            h.with_state(|s| {
                s.address = 9;
                panic!("host callback fails mid-update");
            })
        });
        assert!(caught.is_err());
        assert_eq!(h.read_state(|s| s.address), 9);
        assert_eq!(oam.read(regs::ADDRESS), 9);
    }

    #[test]
    fn unknown_addresses_read_zero_and_ignore_writes() {
        let h = OamHandle::new();
        let mut oam = Oam::new(h);
        oam.write(0xFFF0, 0xDEAD);
        assert_eq!(oam.read(0xFFF0), 0);
    }
}
