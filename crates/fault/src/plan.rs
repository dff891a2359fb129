//! The fault model: what can go wrong on the wire, compiled against a
//! seed into a deterministic impairment schedule.

use p5_stream::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// HDLC flag octet — injected by [`FaultKind::SpuriousFlag`] to split a
/// frame in two, exactly the "corrupted flag" failure mode the deframer's
/// runt/FCS counters absorb.
const FLAG: u8 = 0x7E;
/// HDLC escape octet — `ESCAPE, FLAG` on the wire is an abort sequence,
/// which [`FaultKind::Abort`] fabricates mid-frame.
const ESCAPE: u8 = 0x7D;

/// Every impairment the plan can inject, with a stable lowercase name
/// used by trace events, snapshots and the seeded per-kind regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A uniformly distributed single-bit flip.
    BitError,
    /// Entry into a Gilbert–Elliott bad state (a burst of flips).
    Burst,
    /// A wire octet silently dropped (clock slip).
    Slip,
    /// A wire octet delivered twice.
    Duplicate,
    /// A run of consecutive octets dropped (buffer truncation).
    Truncate,
    /// A fabricated `0x7D 0x7E` abort sequence spliced into the stream.
    Abort,
    /// A spurious `0x7E` flag spliced into the stream.
    SpuriousFlag,
    /// A backpressure storm: the carriage holds the line for a bounded
    /// run of transfers.
    Stall,
    /// An entire transfer discarded (lossy control-plane ferry).
    TransferLoss,
}

impl FaultKind {
    /// All kinds, for per-kind regression sweeps.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::BitError,
        FaultKind::Burst,
        FaultKind::Slip,
        FaultKind::Duplicate,
        FaultKind::Truncate,
        FaultKind::Abort,
        FaultKind::SpuriousFlag,
        FaultKind::Stall,
        FaultKind::TransferLoss,
    ];

    /// Stable lowercase name (the `fault_<name>` snapshot counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitError => "bit_error",
            FaultKind::Burst => "burst",
            FaultKind::Slip => "slip",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Truncate => "truncate",
            FaultKind::Abort => "abort",
            FaultKind::SpuriousFlag => "spurious_flag",
            FaultKind::Stall => "stall",
            FaultKind::TransferLoss => "transfer_loss",
        }
    }
}

/// Why a [`FaultSpec`] failed to compile.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A probability was not a finite value in `[0, 1]`.
    InvalidRate { field: &'static str, value: f64 },
    /// The per-byte structural rates (slip + duplicate + abort + spurious
    /// flag + truncate) must sum to at most 1: they share one draw.
    RateSumExceedsOne { sum: f64 },
    /// A length bound was zero while the rate that uses it was non-zero.
    ZeroBound { field: &'static str },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidRate { field, value } => {
                write!(
                    f,
                    "fault spec: `{field}` = {value} is not a probability in [0, 1]"
                )
            }
            FaultError::RateSumExceedsOne { sum } => {
                write!(f, "fault spec: structural per-byte rates sum to {sum} > 1")
            }
            FaultError::ZeroBound { field } => {
                write!(f, "fault spec: `{field}` is zero but its rate is non-zero")
            }
        }
    }
}

impl Error for FaultError {}

/// Gilbert–Elliott two-state burst model, advanced once per wire *bit*:
/// the channel enters the bad state with probability `p_enter`, flips
/// each bad-state bit with probability `bad_ber`, and leaves the bad
/// state with probability `p_exit` (mean burst length `1 / p_exit` bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    pub p_enter: f64,
    pub p_exit: f64,
    pub bad_ber: f64,
}

/// A bounded backpressure storm: each [`FaultPlan::stall_gate`] call
/// outside a storm starts one with probability `p_start`, lasting a
/// uniform `1..=max_len` further calls.  Bounded by construction so a
/// faulted link can always make progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallStorm {
    pub p_start: f64,
    pub max_len: u32,
}

/// The impairment mix, as plain data.  Start from [`FaultSpec::clean`]
/// and layer faults on with the fluent setters:
///
/// ```
/// use p5_fault::FaultSpec;
/// let spec = FaultSpec::clean().ber(1e-6).slip(1e-5).stall(0.01, 16);
/// let plan = spec.compile(42).unwrap();
/// # let _ = plan;
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Uniform per-bit flip probability (good-state BER).
    pub ber: f64,
    /// Optional Gilbert–Elliott burst overlay.
    pub burst: Option<BurstModel>,
    /// Per-byte probability of dropping the octet.
    pub slip: f64,
    /// Per-byte probability of delivering the octet twice.
    pub duplicate: f64,
    /// Per-byte probability of starting a truncation run.
    pub truncate: f64,
    /// Maximum octets removed by one truncation run.
    pub max_truncate_len: usize,
    /// Per-byte probability of splicing in a `0x7D 0x7E` abort.
    pub abort: f64,
    /// Per-byte probability of splicing in a spurious `0x7E` flag.
    pub spurious_flag: f64,
    /// Optional backpressure storms.
    pub stall: Option<StallStorm>,
    /// Per-transfer probability that [`FaultPlan::lose_transfer`] says to
    /// drop the whole transfer.
    pub transfer_loss: f64,
}

impl FaultSpec {
    /// The identity spec: every rate zero, a transparent wire.
    pub fn clean() -> Self {
        FaultSpec::default()
    }

    pub fn ber(mut self, ber: f64) -> Self {
        self.ber = ber;
        self
    }

    pub fn burst(mut self, p_enter: f64, p_exit: f64, bad_ber: f64) -> Self {
        self.burst = Some(BurstModel {
            p_enter,
            p_exit,
            bad_ber,
        });
        self
    }

    pub fn slip(mut self, rate: f64) -> Self {
        self.slip = rate;
        self
    }

    pub fn duplicate(mut self, rate: f64) -> Self {
        self.duplicate = rate;
        self
    }

    pub fn truncate(mut self, rate: f64, max_len: usize) -> Self {
        self.truncate = rate;
        self.max_truncate_len = max_len;
        self
    }

    pub fn abort(mut self, rate: f64) -> Self {
        self.abort = rate;
        self
    }

    pub fn spurious_flag(mut self, rate: f64) -> Self {
        self.spurious_flag = rate;
        self
    }

    pub fn stall(mut self, p_start: f64, max_len: u32) -> Self {
        self.stall = Some(StallStorm { p_start, max_len });
        self
    }

    pub fn transfer_loss(mut self, rate: f64) -> Self {
        self.transfer_loss = rate;
        self
    }

    /// Whether any structural (length-changing) fault is enabled.  When
    /// false, [`FaultPlan::corrupt_into`] degenerates to a copy plus
    /// [`FaultPlan::corrupt_in_place`].
    pub fn is_structural(&self) -> bool {
        self.slip > 0.0
            || self.duplicate > 0.0
            || self.truncate > 0.0
            || self.abort > 0.0
            || self.spurious_flag > 0.0
    }

    /// Bind the spec to a seed.  Shorthand for [`FaultPlan::compile`].
    pub fn compile(self, seed: u64) -> Result<FaultPlan, FaultError> {
        FaultPlan::compile(self, seed)
    }

    fn validate(&self) -> Result<(), FaultError> {
        fn rate(field: &'static str, value: f64) -> Result<(), FaultError> {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(FaultError::InvalidRate { field, value })
            }
        }
        rate("ber", self.ber)?;
        rate("slip", self.slip)?;
        rate("duplicate", self.duplicate)?;
        rate("truncate", self.truncate)?;
        rate("abort", self.abort)?;
        rate("spurious_flag", self.spurious_flag)?;
        rate("transfer_loss", self.transfer_loss)?;
        if let Some(b) = self.burst {
            rate("burst.p_enter", b.p_enter)?;
            rate("burst.p_exit", b.p_exit)?;
            rate("burst.bad_ber", b.bad_ber)?;
            if b.p_exit == 0.0 {
                // A burst that can never end is an unbounded outage, not
                // an impairment: refuse it.
                return Err(FaultError::ZeroBound {
                    field: "burst.p_exit",
                });
            }
        }
        if let Some(s) = self.stall {
            rate("stall.p_start", s.p_start)?;
            if s.p_start > 0.0 && s.max_len == 0 {
                return Err(FaultError::ZeroBound {
                    field: "stall.max_len",
                });
            }
        }
        if self.truncate > 0.0 && self.max_truncate_len == 0 {
            return Err(FaultError::ZeroBound {
                field: "max_truncate_len",
            });
        }
        let sum = self.slip + self.duplicate + self.truncate + self.abort + self.spurious_flag;
        if sum > 1.0 {
            return Err(FaultError::RateSumExceedsOne { sum });
        }
        Ok(())
    }
}

/// What the plan has injected so far — one counter per [`FaultKind`]
/// plus the traffic baseline they are rates over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Octets that passed through `corrupt_in_place`/`corrupt_into`.
    pub bytes_processed: u64,
    pub bit_errors: u64,
    pub bursts: u64,
    pub slips: u64,
    pub duplicates: u64,
    pub truncations: u64,
    /// Octets removed by truncation runs (≥ `truncations`).
    pub truncated_bytes: u64,
    pub aborts_injected: u64,
    pub flags_injected: u64,
    /// Storms started.
    pub stalls: u64,
    /// Handshake attempts refused inside storms.
    pub stall_cycles: u64,
    pub transfers_lost: u64,
}

impl FaultStats {
    /// The counter for one fault kind (the traffic counters and
    /// `stall_cycles`/`truncated_bytes` are separate fields).
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::BitError => self.bit_errors,
            FaultKind::Burst => self.bursts,
            FaultKind::Slip => self.slips,
            FaultKind::Duplicate => self.duplicates,
            FaultKind::Truncate => self.truncations,
            FaultKind::Abort => self.aborts_injected,
            FaultKind::SpuriousFlag => self.flags_injected,
            FaultKind::Stall => self.stalls,
            FaultKind::TransferLoss => self.transfers_lost,
        }
    }

    /// Total injected events across all kinds.
    pub fn total_injected(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Fold another stats block in (e.g. the two directions of a duplex
    /// link, or a channel plan plus a stage plan).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.bytes_processed += other.bytes_processed;
        self.bit_errors += other.bit_errors;
        self.bursts += other.bursts;
        self.slips += other.slips;
        self.duplicates += other.duplicates;
        self.truncations += other.truncations;
        self.truncated_bytes += other.truncated_bytes;
        self.aborts_injected += other.aborts_injected;
        self.flags_injected += other.flags_injected;
        self.stalls += other.stalls;
        self.stall_cycles += other.stall_cycles;
        self.transfers_lost += other.transfers_lost;
    }

    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("fault");
        s.push_counter("fault_bytes_processed", self.bytes_processed);
        for kind in FaultKind::ALL {
            s.push_counter(format!("fault_{}", kind.name()), self.count(kind));
        }
        s.push_counter("fault_truncated_bytes", self.truncated_bytes);
        s.push_counter("fault_stall_cycles", self.stall_cycles);
        s
    }
}

/// A [`FaultSpec`] bound to a seed: the deterministic impairment
/// schedule.  All mutation happens through `corrupt_*`, `stall_gate` and
/// `lose_transfer`; the same call sequence over the same bytes replays
/// identically for a given `(spec, seed)`, independent of chunking.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    rng: StdRng,
    /// Gilbert–Elliott channel state, carried across calls.
    in_burst: bool,
    /// Octets still to swallow from an active truncation run.
    truncate_remaining: usize,
    /// Handshake refusals left in the active stall storm.
    stall_remaining: u32,
    /// The last stall decision held the line.
    stall_held: bool,
    /// [`FaultPlan::release_stall`] waived the next stall decision.
    stall_waived: bool,
    stats: FaultStats,
}

impl FaultPlan {
    /// Validate the spec and bind it to `seed`.
    pub fn compile(spec: FaultSpec, seed: u64) -> Result<Self, FaultError> {
        spec.validate()?;
        Ok(FaultPlan {
            spec,
            seed,
            rng: StdRng::seed_from_u64(seed),
            in_burst: false,
            truncate_remaining: 0,
            stall_remaining: 0,
            stall_held: false,
            stall_waived: false,
            stats: FaultStats::default(),
        })
    }

    /// A transparent plan (the identity spec — useful as a default).
    pub fn clean(seed: u64) -> Self {
        FaultPlan::compile(FaultSpec::clean(), seed).expect("clean spec always compiles")
    }

    /// Derive an independent plan with the same spec for another lane
    /// (e.g. the reverse direction of a duplex link).  Derivation uses
    /// the *original* seed, not the current RNG state, so forks are
    /// reproducible no matter when they are taken.
    pub fn fork(&self, lane: u64) -> Self {
        let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane.wrapping_add(1));
        FaultPlan::compile(self.spec.clone(), self.seed ^ salt).expect("spec already validated")
    }

    /// Link-aware fork: derive the plan for `(link_id, lane)` in a
    /// multi-link fleet.  Like [`FaultPlan::fork`] the derivation is a
    /// pure function of the *original* seed — never of RNG state or of
    /// fork order — so every worker that derives the plan for a given
    /// link gets a byte-identical fault stream no matter how the fleet
    /// interleaves links across threads.  The two coordinates are mixed
    /// through a splitmix64-style finalizer so that `(link 0, lane 1)`
    /// and `(link 1, lane 0)` land in unrelated streams (a plain
    /// `link_id + lane` salt would collide on such diagonals).
    pub fn fork_link(&self, link_id: u64, lane: u64) -> Self {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(link_id.wrapping_add(1)))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(lane.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan::compile(self.spec.clone(), z).expect("spec already validated")
    }

    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    pub fn snapshot(&self) -> Snapshot {
        self.stats.snapshot()
    }

    /// Flip bits in place (uniform BER plus the burst overlay).  This is
    /// the *length-preserving* subset of the model — what a physical
    /// section can do to scrambled payload — and is what the SONET
    /// channel applies.
    pub fn corrupt_in_place(&mut self, bytes: &mut [u8]) {
        self.stats.bytes_processed += bytes.len() as u64;
        if self.spec.ber <= 0.0 && self.spec.burst.is_none() {
            return;
        }
        for b in bytes {
            *b = self.impair_byte(*b);
        }
    }

    /// Run the full model over `input`, appending the impaired stream to
    /// `out`: bit errors first, then the per-byte structural faults
    /// (slip, duplication, truncation, fabricated aborts and flags).
    pub fn corrupt_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        if !self.spec.is_structural() {
            let start = out.len();
            out.extend_from_slice(input);
            self.corrupt_in_place(&mut out[start..]);
            return;
        }
        out.reserve(input.len());
        let bit_errors_on = self.spec.ber > 0.0 || self.spec.burst.is_some();
        for &raw in input {
            self.stats.bytes_processed += 1;
            let b = if bit_errors_on {
                self.impair_byte(raw)
            } else {
                raw
            };
            if self.truncate_remaining > 0 {
                self.truncate_remaining -= 1;
                self.stats.truncated_bytes += 1;
                continue;
            }
            // One structural draw per delivered byte; the rates partition
            // [0, 1) (validated at compile).
            let u: f64 = self.rng.gen();
            let mut hi = self.spec.slip;
            if u < hi {
                self.stats.slips += 1;
                continue;
            }
            hi += self.spec.duplicate;
            if u < hi {
                out.push(b);
                out.push(b);
                self.stats.duplicates += 1;
                continue;
            }
            hi += self.spec.truncate;
            if u < hi {
                // The current byte is the first casualty of the run.
                self.truncate_remaining = self.rng.gen_range(0..self.spec.max_truncate_len);
                self.stats.truncations += 1;
                self.stats.truncated_bytes += 1;
                continue;
            }
            hi += self.spec.abort;
            if u < hi {
                out.push(b);
                out.push(ESCAPE);
                out.push(FLAG);
                self.stats.aborts_injected += 1;
                continue;
            }
            hi += self.spec.spurious_flag;
            if u < hi {
                out.push(b);
                out.push(FLAG);
                self.stats.flags_injected += 1;
                continue;
            }
            out.push(b);
        }
    }

    /// One backpressure decision: `true` means "hold this transfer".
    /// Storms are bounded by [`StallStorm::max_len`];
    /// [`FaultPlan::release_stall`] cancels one early (a draining link
    /// calls it before each transfer).
    pub fn stall_gate(&mut self) -> bool {
        let waived = std::mem::take(&mut self.stall_waived);
        self.stall_held = if self.stall_remaining > 0 {
            self.stall_remaining -= 1;
            self.stats.stall_cycles += 1;
            true
        } else {
            self.start_storm(waived)
        };
        self.stall_held
    }

    fn start_storm(&mut self, waived: bool) -> bool {
        let Some(storm) = self.spec.stall else {
            return false;
        };
        // A waived decision still makes its start draw, so the seeded
        // schedule after it is the one a plan that drew no storm sees.
        if storm.p_start > 0.0 && self.rng.gen_bool(storm.p_start) && !waived {
            self.stall_remaining = self.rng.gen_range(0..storm.max_len);
            self.stats.stalls += 1;
            self.stats.stall_cycles += 1;
            return true;
        }
        false
    }

    /// Cancel any stall storm in progress.  If the last decision held
    /// the line, the next one lets its transfer through, so a storm
    /// cannot restart at once — at `p_start` = 1 it otherwise would.
    pub fn release_stall(&mut self) {
        self.stall_remaining = 0;
        self.stall_waived = self.stall_held;
    }

    /// One whole-transfer loss decision (for control-plane ferries that
    /// move complete frames rather than byte streams).
    pub fn lose_transfer(&mut self) -> bool {
        if self.spec.transfer_loss > 0.0 && self.rng.gen_bool(self.spec.transfer_loss) {
            self.stats.transfers_lost += 1;
            true
        } else {
            false
        }
    }

    /// Advance the bit-level model over one octet.
    fn impair_byte(&mut self, mut b: u8) -> u8 {
        for bit in 0..8u8 {
            let flip = match self.spec.burst {
                Some(burst) => {
                    if self.in_burst {
                        let f = burst.bad_ber > 0.0 && self.rng.gen_bool(burst.bad_ber);
                        if self.rng.gen_bool(burst.p_exit) {
                            self.in_burst = false;
                        }
                        f
                    } else {
                        if burst.p_enter > 0.0 && self.rng.gen_bool(burst.p_enter) {
                            self.in_burst = true;
                            self.stats.bursts += 1;
                        }
                        self.spec.ber > 0.0 && self.rng.gen_bool(self.spec.ber)
                    }
                }
                None => self.spec.ber > 0.0 && self.rng.gen_bool(self.spec.ber),
            };
            if flip {
                b ^= 1 << bit;
                self.stats.bit_errors += 1;
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_transparent() {
        let mut p = FaultPlan::clean(1);
        let mut bytes = *b"untouched payload";
        p.corrupt_in_place(&mut bytes);
        assert_eq!(&bytes, b"untouched payload");
        let mut out = Vec::new();
        p.corrupt_into(b"still untouched", &mut out);
        assert_eq!(out, b"still untouched");
        assert!(!p.stall_gate());
        assert!(!p.lose_transfer());
        assert_eq!(p.stats().total_injected(), 0);
        assert_eq!(p.stats().bytes_processed, 17 + 15);
    }

    #[test]
    fn same_seed_same_faults_regardless_of_chunking() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7) as u8).collect();
        let spec = FaultSpec::clean()
            .ber(1e-3)
            .slip(2e-3)
            .duplicate(2e-3)
            .truncate(1e-3, 9)
            .abort(1e-3)
            .spurious_flag(1e-3);
        let mut whole = Vec::new();
        let mut one = spec.clone().compile(99).unwrap();
        one.corrupt_into(&data, &mut whole);

        let mut chunked = Vec::new();
        let mut two = spec.compile(99).unwrap();
        // Ragged chunk sizes, including empty calls.
        let mut i = 0;
        for (k, step) in [1usize, 0, 7, 64, 3, 1000, 13].iter().cycle().enumerate() {
            if i >= data.len() {
                break;
            }
            let end = (i + step + (k % 2)).min(data.len());
            two.corrupt_into(&data[i..end], &mut chunked);
            i = end;
        }
        assert_eq!(whole, chunked);
        assert_eq!(one.stats(), two.stats());
        assert!(one.stats().total_injected() > 0, "faults actually fired");
    }

    #[test]
    fn every_structural_kind_fires_and_is_counted() {
        let data = vec![0xA5u8; 50_000];
        let mut p = FaultSpec::clean()
            .slip(2e-3)
            .duplicate(2e-3)
            .truncate(1e-3, 5)
            .abort(1e-3)
            .spurious_flag(1e-3)
            .compile(7)
            .unwrap();
        let mut out = Vec::new();
        p.corrupt_into(&data, &mut out);
        let st = p.stats();
        for kind in [
            FaultKind::Slip,
            FaultKind::Duplicate,
            FaultKind::Truncate,
            FaultKind::Abort,
            FaultKind::SpuriousFlag,
        ] {
            assert!(st.count(kind) > 0, "{} never fired", kind.name());
        }
        // Length bookkeeping closes exactly: every input byte is either
        // delivered, slipped, or truncated; dups/aborts/flags add octets.
        let expect = data.len() as i64 - st.slips as i64 - st.truncated_bytes as i64
            + st.duplicates as i64
            + 2 * st.aborts_injected as i64
            + st.flags_injected as i64;
        assert_eq!(out.len() as i64, expect);
    }

    #[test]
    fn burst_model_clusters_flips() {
        let mut p = FaultSpec::clean()
            .burst(1e-4, 1.0 / 16.0, 0.5)
            .compile(3)
            .unwrap();
        let mut bytes = vec![0u8; 100_000];
        p.corrupt_in_place(&mut bytes);
        let st = p.stats();
        assert!(st.bursts > 0, "bursts injected");
        assert!(
            st.bit_errors > 2 * st.bursts,
            "bursts flip multiple bits each: {} flips over {} bursts",
            st.bit_errors,
            st.bursts
        );
    }

    #[test]
    fn stall_storms_are_bounded_and_releasable() {
        let mut p = FaultSpec::clean().stall(1.0, 8).compile(11).unwrap();
        assert!(p.stall_gate(), "p_start = 1 always storms");
        let mut run = 1u32;
        while p.stall_gate() {
            run += 1;
            assert!(
                run < 100,
                "storm re-arms every call at p_start = 1, but each run is bounded"
            );
            if run == 50 {
                break;
            }
        }
        assert!(p.stats().stall_cycles > 0);
        // A release after a held decision lets the next transfer
        // through; one after a transfer went through waives nothing.
        let mut p = FaultSpec::clean().stall(1.0, 1).compile(11).unwrap();
        assert!(p.stall_gate());
        p.release_stall();
        let stalls = p.stats().stalls;
        assert!(!p.stall_gate(), "released, the line is taken");
        assert_eq!(p.stats().stalls, stalls);
        p.release_stall();
        assert!(p.stall_gate(), "nothing held, nothing waived");
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let base = FaultSpec::clean().ber(1e-3).compile(21).unwrap();
        let mut a1 = base.fork(1);
        let mut a2 = base.fork(1);
        let mut b = base.fork(2);
        let mut x = vec![0u8; 4096];
        let mut y = vec![0u8; 4096];
        let mut z = vec![0u8; 4096];
        a1.corrupt_in_place(&mut x);
        a2.corrupt_in_place(&mut y);
        b.corrupt_in_place(&mut z);
        assert_eq!(x, y, "same lane → same stream");
        assert_ne!(x, z, "different lane → different stream");
    }

    #[test]
    fn bad_specs_are_rejected_with_typed_errors() {
        assert!(matches!(
            FaultSpec::clean().ber(1.5).compile(0),
            Err(FaultError::InvalidRate { field: "ber", .. })
        ));
        assert!(matches!(
            FaultSpec::clean().slip(0.6).duplicate(0.6).compile(0),
            Err(FaultError::RateSumExceedsOne { .. })
        ));
        assert!(matches!(
            FaultSpec::clean().truncate(0.1, 0).compile(0),
            Err(FaultError::ZeroBound {
                field: "max_truncate_len"
            })
        ));
        assert!(matches!(
            FaultSpec::clean().burst(0.1, 0.0, 0.5).compile(0),
            Err(FaultError::ZeroBound {
                field: "burst.p_exit"
            })
        ));
        let e = FaultSpec::clean().ber(f64::NAN).compile(0).unwrap_err();
        assert!(e.to_string().contains("ber"), "Display names the field");
    }

    #[test]
    fn snapshot_exports_per_kind_counters() {
        let mut p = FaultSpec::clean().ber(1e-2).compile(5).unwrap();
        let mut bytes = vec![0u8; 1000];
        p.corrupt_in_place(&mut bytes);
        let s = p.snapshot();
        assert_eq!(s.get("fault_bytes_processed"), Some(1000));
        assert!(s.get("fault_bit_error").unwrap() > 0);
        assert_eq!(s.get("fault_slip"), Some(0));
    }
}
