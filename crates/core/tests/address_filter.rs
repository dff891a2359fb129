//! The receive address rule (RFC 2171 MAPOS over the P⁵'s programmable
//! address register): a station programmed to its own address still
//! accepts the all-stations address 0xFF, and counts a frame addressed
//! to another station as an address mismatch — on the fused receiver
//! and on the staged one alike.

use p5_core::{regs, DatapathWidth, MmioBus, Oam, P5};
use p5_hdlc::{Framer, FramerConfig};
use p5_stream::WireBuf;

const STATION: u8 = 0x05;
const OTHER: u8 = 0x07;

/// One framed PPP frame to `address`, carrying `payload` as IPv4.
fn frame(address: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = vec![address, 0x03, 0x00, 0x21];
    body.extend_from_slice(payload);
    Framer::new(FramerConfig::default()).encode(&body)
}

#[test]
fn a_programmed_station_accepts_all_stations_and_rejects_other_stations() {
    for width in [DatapathWidth::W8, DatapathWidth::W32] {
        for fused in [true, false] {
            let mut dev = P5::new(width);
            dev.fused_enabled = fused;
            Oam::new(dev.oam.clone()).write(regs::ADDRESS, STATION.into());
            let mut wire = WireBuf::new();
            for (address, payload) in [
                (0xFF, &b"all stations"[..]),
                (OTHER, b"another station"),
                (STATION, b"this station"),
            ] {
                wire.push_slice(&frame(address, payload));
            }
            while !wire.is_empty() {
                dev.ingest_wire(&mut wire, usize::MAX);
            }
            // The fused receiver delivers inside `ingest_wire`; the
            // staged one needs the clock.
            let cycles = dev.run_until_idle(100_000);
            assert_eq!(cycles == 0, fused, "{width:?} ran {cycles} cycles");
            let got: Vec<(u8, Vec<u8>)> = dev
                .take_received()
                .into_iter()
                .map(|f| (f.address, f.payload))
                .collect();
            let want = [
                (0xFF, b"all stations".to_vec()),
                (STATION, b"this station".to_vec()),
            ];
            assert_eq!(got, want, "{width:?} fused={fused}");
            let c = dev.rx_counters();
            assert_eq!(c.address_mismatches, 1, "{width:?} fused={fused}");
            assert_eq!(c.frames_ok, 2, "{width:?} fused={fused}");
        }
    }
}
