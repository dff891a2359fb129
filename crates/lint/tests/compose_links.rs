//! Cross-crate composition: the P5L015 pass over the shipped tx/rx
//! chains, whose stage contracts are extracted from the `p5-rtl`
//! netlists — the link-level counterpart of the per-netlist
//! integration tests.

use p5_lint::shipped_link_graphs;

#[test]
fn shipped_chain_contracts_are_extracted_not_defaulted() {
    // The extraction must actually see into the RTL: the tx-control
    // stages drive out_valid from out_ready (registered-data Mealy
    // valid), so at least one shipped contract has a true flag.
    let graphs = shipped_link_graphs();
    assert!(graphs
        .iter()
        .flat_map(|g| &g.stages)
        .any(|s| s.valid_on_ready));
}
