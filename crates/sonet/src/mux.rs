//! SDH byte-interleaved multiplexing: N tributary STM-1 streams carried
//! in one STM-N line, column-interleaved per ITU G.707 — the "M" in
//! STM.  This is how a carrier aggregates four 155 Mbps P⁵ links onto
//! one 622 Mbps fibre (or sixteen onto 2.5 Gbps) without touching the
//! tributary payloads.

use crate::frame::StmLevel;

/// Byte-interleave `n` tributary frames (each one STM-1 frame of 2430
/// bytes) into a single STM-n line frame: output column `c` of row `r`
/// comes from tributary `c % n`, column `c / n`.
pub fn interleave(tributaries: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    interleave_into(tributaries, &mut out);
    out
}

/// [`interleave`] into `out` (overwritten).  Rows of the envelope are
/// `n` times as long as a tributary's, so octet `i` of tributary `t`
/// lands at `i * n + t` whatever its row: one stride-`n` pass per
/// tributary.
pub fn interleave_into(tributaries: &[Vec<u8>], out: &mut Vec<u8>) {
    let n = tributaries.len();
    assert!(n == 4 || n == 16, "SDH multiplexes 4 or 16 tributaries");
    let trib_bytes = StmLevel::Stm1.frame_bytes();
    out.clear();
    out.resize(trib_bytes * n, 0);
    for (t, trib) in tributaries.iter().enumerate() {
        assert_eq!(trib.len(), trib_bytes, "tributaries are STM-1 frames");
        for (o, &b) in out[t..].iter_mut().step_by(n).zip(trib) {
            *o = b;
        }
    }
}

/// De-interleave an STM-n line frame back into its `n` STM-1
/// tributaries.
pub fn deinterleave(line: &[u8], n: usize) -> Vec<Vec<u8>> {
    assert!(n == 4 || n == 16);
    let mut tribs = vec![Vec::new(); n];
    deinterleave_into(line, &mut tribs);
    tribs
}

/// [`deinterleave`] into `tribs.len()` tributary buffers (overwritten).
pub fn deinterleave_into(line: &[u8], tribs: &mut [Vec<u8>]) {
    let n = tribs.len();
    let trib_bytes = StmLevel::Stm1.frame_bytes();
    assert_eq!(line.len(), trib_bytes * n, "line is one STM-{n} frame");
    for (t, trib) in tribs.iter_mut().enumerate() {
        trib.clear();
        trib.extend(line[t..].iter().step_by(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameReceiver, FrameTransmitter, A1, A2};

    #[test]
    fn interleave_roundtrip_4() {
        let tribs: Vec<Vec<u8>> = (0..4u8)
            .map(|i| {
                (0..2430)
                    .map(|j| (j as u8).wrapping_mul(3).wrapping_add(i))
                    .collect()
            })
            .collect();
        let line = interleave(&tribs);
        assert_eq!(line.len(), StmLevel::Stm4.frame_bytes());
        assert_eq!(deinterleave(&line, 4), tribs);
    }

    #[test]
    fn interleave_roundtrip_16() {
        let tribs: Vec<Vec<u8>> = (0..16u8)
            .map(|i| (0..2430).map(|j| (j as u8) ^ i).collect())
            .collect();
        let line = interleave(&tribs);
        assert_eq!(line.len(), StmLevel::Stm16.frame_bytes());
        assert_eq!(deinterleave(&line, 16), tribs);
    }

    #[test]
    fn interleaved_framing_bytes_form_the_stmn_pattern() {
        // Four real STM-1 frames: the interleaved line starts with
        // A1 x 12, A2 x 12 — the STM-4 framing pattern.
        let tribs: Vec<Vec<u8>> = (0..4)
            .map(|_| FrameTransmitter::new(StmLevel::Stm1).emit_frame())
            .collect();
        let line = interleave(&tribs);
        assert!(line[..12].iter().all(|&b| b == A1));
        assert!(line[12..24].iter().all(|&b| b == A2));
    }

    #[test]
    fn tributary_payloads_survive_the_line() {
        // Four independent P5-class payload streams, multiplexed onto
        // one STM-4 line and recovered by four independent receivers.
        let mut txs: Vec<FrameTransmitter> = (0..4)
            .map(|_| FrameTransmitter::new(StmLevel::Stm1))
            .collect();
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0x40 + i; 1000]).collect();
        for (t, d) in txs.iter_mut().zip(&data) {
            t.offer_payload(d);
        }
        let mut rxs: Vec<FrameReceiver> =
            (0..4).map(|_| FrameReceiver::new(StmLevel::Stm1)).collect();
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); 4];
        for _ in 0..2 {
            let frames: Vec<Vec<u8>> = txs.iter_mut().map(|t| t.emit_frame()).collect();
            let line = interleave(&frames);
            // ... the line crosses the fibre ...
            for (i, trib) in deinterleave(&line, 4).into_iter().enumerate() {
                got[i].extend(rxs[i].push(&trib));
            }
        }
        for i in 0..4 {
            assert_eq!(&got[i][..1000], &data[i][..], "tributary {i}");
            assert_eq!(rxs[i].stats().b1_errors, 0);
        }
    }

    #[test]
    #[should_panic(expected = "4 or 16")]
    fn rejects_unsupported_widths() {
        interleave(&[vec![0; 2430], vec![0; 2430]]);
    }
}
