//! # P⁵ — the Point-to-Point-Protocol Packet Processor
//!
//! A cycle-accurate software model of the paper's contribution: a
//! "highly pipelined 2.5 Gbps Point-to-Point-Protocol Packet Processor"
//! with an 8-bit (625 Mbps) and a 32-bit (2.5 Gbps) datapath.
//!
//! The system architecture follows Figure 2 of the paper:
//!
//! ```text
//!  Shared Memory ──┐                         ┌── Shared Memory
//!                  ▼                         ▼
//!            ┌──────────────┐  Protocol ┌──────────────┐
//!   µP bus ⇄ │ PPP          │◀─ OAM  ─▶ │ PPP          │ ⇄ µP bus
//!            │ Transmitter  │           │ Receiver     │
//!            └──────┬───────┘           └──────▲───────┘
//!                   ▼  PHY                     │  PHY
//! ```
//!
//! Each direction is the three-stage pipeline of Figures 3 and 4:
//!
//! * **Transmitter** — [`tx::TxControl`] (frame assembly from shared
//!   memory, header prepend) → [`tx::TxCrc`] (parallel FCS-32 via the
//!   `p5-crc` matrices, FCS append) → [`tx::EscapeGen`] (byte stuffing
//!   with the byte-sorting repack network, resynchronisation buffer and
//!   backpressure of Figure 5).
//! * **Receiver** — [`rx::EscapeDetect`] (flag delineation, destuffing,
//!   bubble compaction of Figure 6) → [`rx::RxCrc`] (FCS check) →
//!   [`rx::RxControl`] (header validation, shared-memory delivery,
//!   counters, interrupts).
//! * **Protocol OAM** — [`oam::Oam`]: the memory-mapped register file
//!   that makes the device *programmable*: station address (MAPOS),
//!   FCS mode, promiscuous mode, interrupt enables, error counters.
//!
//! Words move through the pipeline one per clock ("a PPP frame
//! propagates at 32 bits per clock cycle through the transmitter or
//! receiver block"); every stage is a registered unit with ready/valid
//! handshakes, so stalls, pipeline-fill latency, and the escape units'
//! buffer occupancies are all observable — they feed the Figure 5/6 and
//! throughput experiments in `p5-bench`.
//!
//! ```
//! use p5_core::{DatapathWidth, P5};
//!
//! let mut dev = P5::new(DatapathWidth::W32);     // the 2.5 Gbps datapath
//! dev.submit(0x0021, vec![0xDE, 0xAD, 0x7E]).unwrap(); // an IPv4 datagram
//! dev.run_until_idle(10_000);
//! let wire = dev.take_wire_out();                // flagged, stuffed, FCS'd
//!
//! let mut peer = P5::new(DatapathWidth::W32);
//! peer.put_wire_in(&wire);
//! peer.run_until_idle(10_000);
//! assert_eq!(peer.take_received()[0].payload, vec![0xDE, 0xAD, 0x7E]);
//! ```

pub mod delay;
pub mod link;
pub mod oam;
pub mod p5;
pub mod rx;
pub mod stager;
pub mod tx;
pub mod word;

pub use link::{Carriage, LinkCore, LinkCounters};
pub use oam::{regs, HealthCounters, Interrupt, MmioBus, Oam, OamHandle};
pub use p5::{DatapathWidth, ReceivedFrame, P5};
pub use tx::TxQueueFull;
pub use word::Word;
