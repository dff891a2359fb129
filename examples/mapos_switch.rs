//! MAPOS — the reason the P⁵'s address field is programmable.
//!
//! The paper cites MAPOS (RFC 2171, refs [1][2]) as the system its
//! programmable HDLC address supports: multiple stations on SONET links
//! joined by a frame switch that forwards on the address octet.  This
//! example builds a four-port *learning* MAPOS switch:
//!
//! ```text
//!   station A (addr 03) ──╮
//!   station B (addr 05) ──┼── learning frame switch
//!   station C (addr 07) ──┤   (flood unknown, then unicast)
//!   station D (addr 09) ──╯
//! ```
//!
//! Every port is a full duplex P⁵ link assembled by [`LinkBuilder`] —
//! the station end keeps its MAPOS address filter, the switch end runs
//! promiscuous so the fabric sees every frame regardless of its
//! destination octet.  Port devices built through `LinkBuilder` give
//! FCS checking, address filtering and OAM counters for free.
//!
//! The switch *learns*: MAPOS frames carry only the destination in the
//! HDLC address octet (source association is NSP's job in RFC 2171),
//! so this example prepends one source-address shim octet to each
//! payload — an example convention standing in for NSP, documented
//! here so nobody mistakes it for wire format.  Unknown destinations
//! flood to every other port; once a station has been heard from, its
//! frames go out one port only.  The flood is observable from the
//! innocent stations' `ADDR_MISMATCHES` counters — their P⁵ receivers
//! drop the misaddressed copies in hardware.
//!
//! ```sh
//! cargo run --release --example mapos_switch
//! ```

use std::collections::HashMap;

use p5::core::oam::ctrl;
use p5::core::HealthCounters;
use p5::ppp::mapos::MaposAddress;
use p5::prelude::*;

/// Staged-pipeline cycles granted per device per pump round — enough
/// for a handful of short frames end to end.
const CYCLES: u64 = 20_000;

/// Register-bus view of one link end's OAM block.
fn bus_of(end: &LinkCore) -> Oam {
    Oam::new(end.dev.oam.clone())
}

/// One switch port: a duplex P⁵ link whose `a` end is the station and
/// whose `b` end is the switch-side device.
struct Port {
    name: &'static str,
    station: MaposAddress,
    link: DuplexLink,
}

impl Port {
    fn new(name: &'static str, port_number: u8) -> Self {
        let station = MaposAddress::unicast(port_number).expect("valid port number");
        let link = LinkBuilder::new()
            .width(DatapathWidth::W32)
            .build_duplex()
            .expect("duplex link");
        let port = Port {
            name,
            station,
            link,
        };
        // Station side filters on its own MAPOS address (+ broadcast).
        let mut bus = bus_of(&port.link.a);
        bus.write(regs::ADDRESS, station.octet() as u32);
        // Switch side must see every destination: promiscuous RX.
        let mut bus = bus_of(&port.link.b);
        let c = bus.read(regs::CTRL);
        bus.write(regs::CTRL, c | ctrl::PROMISCUOUS);
        port
    }

    /// Station transmit: stamp the *destination* into the programmable
    /// address register (as MAPOS firmware does per frame), prepend the
    /// source shim octet, and restore the filter address.
    fn send_to(&mut self, dest: MaposAddress, message: &[u8]) {
        let mut payload = Vec::with_capacity(message.len() + 1);
        payload.push(self.station.octet());
        payload.extend_from_slice(message);
        let mut bus = bus_of(&self.link.a);
        bus.write(regs::ADDRESS, dest.octet() as u32);
        self.link
            .a
            .dev
            .submit(0x0021, payload)
            .expect("queue empty");
        self.link.a.dev.run(CYCLES);
        bus.write(regs::ADDRESS, self.station.octet() as u32);
    }

    /// Misaddressed frames the station's receiver filtered out — the
    /// visible footprint of a flood.
    fn address_mismatches(&self) -> u32 {
        bus_of(&self.link.a).read(regs::ADDR_MISMATCHES)
    }
}

/// The fabric: a learned station-address → port map plus flood/forward
/// accounting.
#[derive(Default)]
struct Fabric {
    table: HashMap<u8, usize>,
    floods: u32,
    unicasts: u32,
}

impl Fabric {
    /// Service every port: collect frames off the switch-side devices,
    /// learn sources, and re-transmit towards their destinations.
    fn service(&mut self, ports: &mut [Port]) {
        // Collect first, then transmit — a forwarded frame must not be
        // re-collected within the same service pass.
        let mut pending: Vec<(usize, ReceivedFrame)> = Vec::new();
        for (i, port) in ports.iter_mut().enumerate() {
            for frame in port.link.b.dev.take_received() {
                pending.push((i, frame));
            }
        }
        for (from, frame) in pending {
            let Some(&src) = frame.payload.first() else {
                continue; // shim-less frame: nothing to learn or route
            };
            self.table.insert(src, from);
            let dest = frame.address;
            let out: Vec<usize> = match self.table.get(&dest) {
                Some(&p) if dest != MaposAddress::BROADCAST.octet() => vec![p],
                // Broadcast, or a station nobody has heard from: flood.
                _ => (0..ports.len()).filter(|&p| p != from).collect(),
            };
            if out.len() == 1 {
                self.unicasts += 1;
            } else {
                self.floods += 1;
            }
            for p in out {
                let port = &mut ports[p];
                // Egress keeps the original destination octet so the
                // station-side address filter has the final say.
                let mut bus = bus_of(&port.link.b);
                bus.write(regs::ADDRESS, dest as u32);
                port.link
                    .b
                    .dev
                    .submit(frame.protocol, frame.payload.clone())
                    .expect("switch egress queue empty");
                port.link.b.dev.run(CYCLES);
            }
        }
    }
}

/// One full plant rotation: clock every device, move wire bytes both
/// ways on every link, then let the fabric switch what arrived.
fn pump(ports: &mut [Port], fabric: &mut Fabric, rounds: usize) {
    for _ in 0..rounds {
        for port in ports.iter_mut() {
            port.link.a.dev.run(CYCLES);
            port.link.b.dev.run(CYCLES);
            port.link.exchange();
            port.link.b.dev.run(CYCLES);
        }
        fabric.service(ports);
        // Carry the fabric's egress back down to the stations.
        for port in ports.iter_mut() {
            port.link.exchange();
            port.link.a.dev.run(CYCLES);
        }
    }
}

fn collect(port: &mut Port) -> Vec<(u8, String)> {
    port.link
        .a
        .dev
        .take_received()
        .into_iter()
        .map(|f| {
            let src = f.payload.first().copied().unwrap_or(0);
            (src, String::from_utf8_lossy(&f.payload[1..]).into_owned())
        })
        .collect()
}

fn main() {
    let mut ports = [
        Port::new("A", 1), // addr 0x03
        Port::new("B", 2), // addr 0x05
        Port::new("C", 3), // addr 0x07
        Port::new("D", 4), // addr 0x09
    ];
    let mut fabric = Fabric::default();
    let (a_addr, b_addr) = (ports[0].station, ports[1].station);

    // 1. A → B while the table is empty: the switch must flood, and
    //    the flood's rejected copies land in C's and D's mismatch
    //    counters.
    ports[0].send_to(b_addr, b"hello B, from A");
    pump(&mut ports, &mut fabric, 4);
    assert_eq!(fabric.floods, 1, "unknown destination must flood");
    assert_eq!(collect(&mut ports[1]).len(), 1, "B gets A's hello");
    assert_eq!(ports[2].address_mismatches(), 1, "C saw the flood");
    assert_eq!(ports[3].address_mismatches(), 1, "D saw the flood");

    // 2. B replies: A was learned from step 1, so this goes out one
    //    port, and the switch learns B.
    ports[1].send_to(a_addr, b"hello A, from B");
    pump(&mut ports, &mut fabric, 4);
    assert_eq!(fabric.unicasts, 1, "learned destination must not flood");
    assert_eq!(collect(&mut ports[0]).len(), 1, "A gets B's reply");

    // 3. A → B again: both learned now — pure unicast, no new
    //    mismatches anywhere.
    ports[0].send_to(b_addr, b"again, B");
    pump(&mut ports, &mut fabric, 4);
    assert_eq!(fabric.unicasts, 2);
    assert_eq!(collect(&mut ports[1]).len(), 1);
    assert_eq!(ports[2].address_mismatches(), 1, "no new flood reached C");
    assert_eq!(ports[3].address_mismatches(), 1, "no new flood reached D");

    // 4. C broadcasts: reaches every other station through their own
    //    address filters (0xFF is always accepted).
    ports[2].send_to(MaposAddress::BROADCAST, b"hear ye, all stations");
    pump(&mut ports, &mut fabric, 4);
    for i in [0usize, 1, 3] {
        let got = collect(&mut ports[i]);
        assert_eq!(got.len(), 1, "{} missed the broadcast", ports[i].name);
        assert_eq!(got[0].0, ports[2].station.octet());
    }

    println!(
        "learning switch: {} flood(s), {} unicast forward(s), table size {}",
        fabric.floods,
        fabric.unicasts,
        fabric.table.len()
    );

    // Per-station health table from the same OAM counters the live
    // collector scores (DESIGN.md §17).  Address-filter drops are the
    // switch working as designed, not line errors, so they are shown
    // in their own column and excluded from the verdict.
    let policy = HealthPolicy::default();
    println!("\nstation health:");
    println!("  port  addr   state     rx_frames  line_errors  filtered");
    for port in &ports {
        let station = bus_of(&port.link.a);
        let hc = HealthCounters::read(&station, &station);
        let filtered = u64::from(port.address_mismatches());
        let line_errors = hc.rx_errors - filtered;
        let state = policy.snap_judgment(&p5::obs::HealthSample {
            delivered: hc.rx_frames,
            offered: hc.rx_frames + line_errors,
            errors: line_errors,
            ..Default::default()
        });
        println!(
            "  {:>4}  {:#04X}  {:<8}  {:>9}  {:>11}  {:>8}",
            port.name,
            port.station.octet(),
            state.name(),
            hc.rx_frames,
            line_errors,
            filtered
        );
        assert_eq!(state, HealthState::Healthy, "clean fabric, healthy links");
    }

    // Top-3 stall attributions across every device in the plant (the
    // bottleneck finder, not a raw snapshot dump).
    let mut stalls: Vec<(String, u64, u64)> = Vec::new();
    for port in &ports {
        for (end, dev) in [("station", &port.link.a.dev), ("switch", &port.link.b.dev)] {
            for snap in [dev.tx.snapshot(), dev.rx.snapshot()] {
                stalls.push((
                    format!("{} {end} {}", port.name, snap.scope),
                    snap.get("stall_cycles").unwrap_or(0),
                    snap.get("cycles").unwrap_or(0),
                ));
            }
        }
    }
    stalls.sort_by_key(|(_, s, _)| std::cmp::Reverse(*s));
    println!("\ntop stall attributions:");
    for (who, stalled, cycles) in stalls.iter().take(3) {
        println!(
            "  {who:<20}: {stalled:>9} stalled cycles of {cycles:>9} ({:.1}%)",
            100.0 * *stalled as f64 / (*cycles).max(1) as f64
        );
    }
    println!("\nflood-then-learn on the programmable address octet works.");
}
