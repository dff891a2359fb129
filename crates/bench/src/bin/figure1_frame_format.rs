//! Figure 1 — the PPP frame format, rendered from a live encode:
//! every field of a real frame produced by the stack, annotated, plus
//! the on-the-wire image after stuffing (so the flag/escape transparency
//! is visible byte by byte).

use p5_bench::heading;
use p5_crc::{fcs32, fcs32_wire_bytes};
use p5_hdlc::{Framer, FramerConfig};
use p5_ppp::frame::{FrameCodec, PppFrame};
use p5_ppp::protocol::Protocol;

fn main() {
    print!(
        "{}",
        heading("Figure 1 - the PPP frame format (live encode)")
    );
    let payload = vec![0x31, 0x33, 0x7E, 0x96]; // the paper's example bytes
    let frame = PppFrame::datagram(Protocol::Ipv4, payload);
    let codec = FrameCodec::default();
    let body = codec.encode(&frame);
    let fcs = fcs32(&body);

    println!("field      bytes        value");
    println!("---------  -----------  -----------------------------------");
    println!("flag       7E           frame delimiter");
    println!(
        "address    {:02X}           all-stations (programmable: MAPOS)",
        body[0]
    );
    println!(
        "control    {:02X}           unnumbered information",
        body[1]
    );
    println!(
        "protocol   {:02X} {:02X}        {:?}",
        body[2],
        body[3],
        Protocol::from_number(u16::from_be_bytes([body[2], body[3]]))
    );
    println!("payload    {:02X?}", &body[4..]);
    println!(
        "FCS-32     {:02X?}  (complemented CRC, LSB first)",
        fcs32_wire_bytes(fcs)
    );
    println!("flag       7E           frame delimiter");

    // And the wire image, with stuffing applied.
    let mut wire = Vec::new();
    Framer::new(FramerConfig::default()).encode_into(&body, &mut wire);
    println!("\non the wire ({} bytes): {:02X?}", wire.len(), wire);
    println!(
        "note the payload flag 7E became 7D 5E — \"0x31, 0x33, 0x7E, 0x96 →\n\
         0x31, 0x33, 0x7D, 0x5E, 0x96\", the paper's worked example."
    );
}
