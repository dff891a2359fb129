//! The fused transmitter starts each frame's FCS from the register its
//! 4-octet header left, cached under that header.  Reprogramming ADDRESS
//! over the bus between frames and alternating protocols must never
//! serve a stale register: every frame's wire bytes equal the golden
//! framer's, and a receiving device delivers each one without an FCS
//! error.

use p5_core::oam::ctrl;
use p5_core::{regs, DatapathWidth, MmioBus, Oam, OamHandle, P5};
use p5_hdlc::{FcsMode, Framer, FramerConfig};
use p5_stream::WireBuf;

/// A device on `fcs` (FCS-32 is the power-on default).
fn device(width: DatapathWidth, fcs: FcsMode) -> P5 {
    let oam = OamHandle::new();
    if fcs == FcsMode::Fcs16 {
        oam.with_state(|s| s.ctrl |= ctrl::FCS16);
    }
    P5::with_oam(width, oam)
}

/// The (address, protocol) of each frame: runs that repeat a header, so
/// the cache hits, broken by a new address or a new protocol, so it
/// must miss.  0x7D and 0x7E need stuffing in the header itself.
fn schedule() -> Vec<(u8, u16)> {
    let addresses = [0xFF, 0xFF, 0x05, 0x05, 0x7D, 0xFF, 0x7E, 0x05, 0x00];
    let protocols = [0x0021, 0x0057, 0xC021];
    let mut out = Vec::new();
    for (i, &addr) in addresses.iter().enumerate() {
        for k in 0..4 {
            out.push((addr, protocols[(i + k / 2) % protocols.len()]));
        }
    }
    out
}

fn payload(i: usize) -> Vec<u8> {
    let len = [0, 1, 3, 4, 7, 12, 16, 40, 44, 63, 64, 100, 576][i % 13];
    (0..len)
        .map(|j| match (i + j) % 11 {
            0 => 0x7E,
            1 => 0x7D,
            _ => (i * 31 + j * 7) as u8,
        })
        .collect()
}

#[test]
fn a_new_address_or_protocol_never_reuses_a_cached_header_register() {
    for width in [DatapathWidth::W8, DatapathWidth::W32] {
        for fcs in [FcsMode::Fcs32, FcsMode::Fcs16] {
            let (mut tx, mut rx) = (device(width, fcs), device(width, fcs));
            let (mut tx_bus, mut rx_bus) = (Oam::new(tx.oam.clone()), Oam::new(rx.oam.clone()));
            let mut golden = Framer::new(FramerConfig {
                fcs,
                ..Default::default()
            });
            let mut wire = WireBuf::new();
            let mut address = 0xFF;
            for (i, (addr, protocol)) in schedule().into_iter().enumerate() {
                let at = format!(
                    "{width:?} {fcs:?} frame {i} address {addr:#04x} protocol {protocol:#06x}"
                );
                if addr != address {
                    tx_bus.write(regs::ADDRESS, addr.into());
                    rx_bus.write(regs::ADDRESS, addr.into());
                    address = addr;
                }
                let payload = payload(i);
                assert!(tx.fused_submit_wire(protocol, &payload, 0), "{at}");
                let bytes = tx.take_wire_out();

                let mut body = vec![addr, 0x03];
                body.extend_from_slice(&protocol.to_be_bytes());
                body.extend_from_slice(&payload);
                // Frames after the first share the flag before them.
                let mut want = Vec::new();
                golden.encode_into(&body, &mut want);
                assert_eq!(bytes, want, "{at}");

                wire.push_slice(&bytes);
                let sent = bytes.len();
                tx.recycle_wire_vec(bytes);
                assert_eq!(
                    rx.fused_ingest_wire(&mut wire, usize::MAX),
                    Some(sent),
                    "{at}"
                );
                let got = rx
                    .pop_received()
                    .unwrap_or_else(|| panic!("{at}: not delivered"));
                assert_eq!((got.address, got.protocol), (addr, protocol), "{at}");
                assert_eq!(got.payload, payload, "{at}");
                assert_eq!(rx.rx_counters().fcs_errors, 0, "{at}");
            }
            assert_eq!(rx.rx_counters().frames_ok, schedule().len() as u64);
        }
    }
}
