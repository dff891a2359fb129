//! Full-stack integration: IP datagrams through the P⁵,
//! over STM-16/STM-4 with overheads, scrambling and injected bit
//! errors, back up through the receiving P⁵ — the paper's deployment
//! scenario end to end, assembled by [`LinkBuilder`].

use p5::prelude::*;

/// Push `datagrams` through P⁵ → OC path → P⁵ as one [`Link`]; returns
/// (delivered payloads, receiver error total).
///
/// Frames enter the path whole, so the SONET framer never has to
/// invent fill octets in the middle of an HDLC frame.
fn run_stack(
    width: DatapathWidth,
    level: StmLevel,
    fault: Option<FaultPlan>,
    datagrams: &[Vec<u8>],
) -> (Vec<Vec<u8>>, u64) {
    let mut builder = LinkBuilder::new().width(width).sonet(level);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    let mut link = builder.build().expect("link assembles");
    for d in datagrams {
        link.send(0x0021, d);
    }
    link.run(5_000).expect("stack did not drain");
    let out = link.deliveries().into_iter().map(|(_, p)| p).collect();
    (out, link.rx_errors())
}

#[test]
fn clean_channel_delivers_everything_w32() {
    let datagrams: Vec<Vec<u8>> = (0..100u8)
        .map(|i| vec![i; 40 + 11 * i as usize % 1400])
        .collect();
    let (got, errors) = run_stack(DatapathWidth::W32, StmLevel::Stm16, None, &datagrams);
    assert_eq!(errors, 0);
    assert_eq!(got, datagrams);
}

#[test]
fn clean_channel_delivers_everything_w8_on_stm4() {
    let datagrams: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i ^ 0x7E; 60 + i as usize]).collect();
    let (got, errors) = run_stack(DatapathWidth::W8, StmLevel::Stm4, None, &datagrams);
    assert_eq!(errors, 0);
    assert_eq!(got, datagrams);
}

#[test]
fn adversarial_payloads_survive_the_stack() {
    // Payloads full of flags/escapes — the byte sorter's worst case —
    // plus SONET scrambling on top.
    let mut datagrams = Vec::new();
    for i in 0..30 {
        let d: Vec<u8> = (0..200)
            .map(|j| match (i + j) % 3 {
                0 => 0x7E,
                1 => 0x7D,
                _ => (i * 31 + j) as u8,
            })
            .collect();
        datagrams.push(d);
    }
    let (got, errors) = run_stack(DatapathWidth::W32, StmLevel::Stm16, None, &datagrams);
    assert_eq!(errors, 0);
    assert_eq!(got, datagrams);
}

#[test]
fn bit_errors_are_detected_never_delivered_corrupt() {
    let datagrams: Vec<Vec<u8>> = (0..200u16)
        .map(|i| {
            (0..100)
                .map(|j| (i.wrapping_mul(7).wrapping_add(j) & 0xFF) as u8)
                .collect()
        })
        .collect();
    let plan = FaultSpec::clean()
        .ber(2e-6)
        .compile(77)
        .expect("valid spec");
    let (got, errors) = run_stack(DatapathWidth::W32, StmLevel::Stm16, Some(plan), &datagrams);
    assert!(errors > 0, "at 2e-6 BER over ~20kB some frames must break");
    // Every delivered payload must be byte-identical to one that was
    // sent (in order): FCS-32 caught all corruption.
    let mut di = datagrams.iter();
    for g in &got {
        assert!(
            di.any(|d| d == g),
            "a delivered frame matches no sent datagram — silent corruption!"
        );
    }
    assert!(got.len() + errors as usize >= datagrams.len() - 4);
}

#[test]
fn oam_counters_match_the_behaviour() {
    // Device-level (no stack): the batched wire hand-off between two
    // bare P⁵s, checked against the OAM registers.
    let datagrams: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 64]).collect();
    let mut tx = P5::new(DatapathWidth::W32);
    let mut rx = P5::new(DatapathWidth::W32);
    for d in &datagrams {
        tx.submit(0x0021, d.clone()).unwrap();
    }
    tx.run_until_idle(1_000_000);
    rx.put_wire_in(&tx.take_wire_out());
    rx.run_until_idle(1_000_000);
    let bus = Oam::new(rx.oam.clone());
    assert_eq!(bus.read(regs::RX_FRAMES), 10);
    assert_eq!(bus.read(regs::FCS_ERRORS), 0);
    let tx_bus = Oam::new(tx.oam.clone());
    assert_eq!(tx_bus.read(regs::TX_FRAMES), 10);
}
