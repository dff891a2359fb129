//! [`NegotiationProfile`]: the one typed description of what a session
//! negotiates.
//!
//! Before the transport redesign, configuring a session meant touching
//! scattered knobs: an [`EndpointConfig`] for the RFC 1661 timers, a
//! hand-built `LcpNegotiator` for MRU and field compression, ad-hoc
//! wiring for PAP.  A `NegotiationProfile` gathers the whole
//! surface — the same shape a production PPP test platform exposes as
//! one configuration object — and is consumed identically by
//! `Session::with_profile`, `p5_link::LinkBuilder::profile` and
//! `p5_xport::SessionDriver`.

use crate::endpoint::EndpointConfig;
use crate::pap::CredentialTable;

/// Authentication stance for the session (RFC 1334 PAP).
#[derive(Debug, Clone, Default)]
pub enum AuthPolicy {
    /// No authentication phase: IPCP starts as soon as LCP opens.
    #[default]
    None,
    /// We authenticate *to* the peer: send a PAP Authenticate-Request
    /// with these credentials once the link opens, and hold IPCP until
    /// the peer Acks.
    PapClient {
        /// Peer-ID field of the Authenticate-Request.
        id: Vec<u8>,
        /// Password field of the Authenticate-Request.
        secret: Vec<u8>,
    },
    /// The peer must authenticate to *us*: hold IPCP until a PAP
    /// request arrives that matches this table.
    PapServer(CredentialTable),
}

/// Typed builder for everything one session endpoint negotiates: MRU,
/// ACFC/PFC field compression, the RFC 1661 restart budget and the
/// authentication stance — plus the IPCP address and LCP magic number
/// that identify the endpoint.
#[derive(Debug, Clone)]
pub struct NegotiationProfile {
    mru: u16,
    magic: u32,
    ip: [u8; 4],
    acfc: bool,
    pfc: bool,
    restart_period: u64,
    max_configure: u32,
    max_terminate: u32,
    auth: AuthPolicy,
}

impl Default for NegotiationProfile {
    fn default() -> Self {
        let cfg = EndpointConfig::default();
        NegotiationProfile {
            mru: 1500,
            magic: 0,
            ip: [0; 4],
            acfc: false,
            pfc: false,
            restart_period: cfg.restart_period,
            max_configure: cfg.max_configure,
            max_terminate: cfg.max_terminate,
            auth: AuthPolicy::None,
        }
    }
}

impl NegotiationProfile {
    pub fn new() -> Self {
        NegotiationProfile::default()
    }

    /// Maximum-Receive-Unit we request (default 1500).
    pub fn mru(mut self, mru: u16) -> Self {
        self.mru = mru;
        self
    }

    /// LCP magic number for loop detection (default 0 = none sent).
    pub fn magic(mut self, magic: u32) -> Self {
        self.magic = magic;
        self
    }

    /// IPv4 address we bring to IPCP negotiation.
    pub fn ip(mut self, ip: [u8; 4]) -> Self {
        self.ip = ip;
        self
    }

    /// Request Address-and-Control-Field-Compression.
    pub fn acfc(mut self, on: bool) -> Self {
        self.acfc = on;
        self
    }

    /// Request Protocol-Field-Compression.
    pub fn pfc(mut self, on: bool) -> Self {
        self.pfc = on;
        self
    }

    /// Request both field compressions (the paper's §2 MAPOS-friendly
    /// short header).
    pub fn compression(self, on: bool) -> Self {
        self.acfc(on).pfc(on)
    }

    /// Restart-timer period in ticks (RFC 1661 §4.6).
    pub fn restart_period(mut self, ticks: u64) -> Self {
        self.restart_period = ticks;
        self
    }

    /// Max-Configure: Configure-Request retransmissions before giving
    /// up.
    pub fn max_configure(mut self, n: u32) -> Self {
        self.max_configure = n;
        self
    }

    /// Max-Terminate: Terminate-Request retransmissions.
    pub fn max_terminate(mut self, n: u32) -> Self {
        self.max_terminate = n;
        self
    }

    /// Authenticate to the peer with PAP once the link opens.
    pub fn pap_client(mut self, id: &[u8], secret: &[u8]) -> Self {
        self.auth = AuthPolicy::PapClient {
            id: id.to_vec(),
            secret: secret.to_vec(),
        };
        self
    }

    /// Require PAP from the peer, verified against `table`.
    pub fn pap_server(mut self, table: CredentialTable) -> Self {
        self.auth = AuthPolicy::PapServer(table);
        self
    }

    // -- read accessors (the driver side of the surface) --------------

    /// The RFC 1661 timer/counter bundle this profile resolves to.
    pub fn config(&self) -> EndpointConfig {
        EndpointConfig {
            restart_period: self.restart_period,
            max_configure: self.max_configure,
            max_terminate: self.max_terminate,
        }
    }

    /// Upper bound, in ticks, for one negotiation round (see
    /// [`EndpointConfig::restart_budget_ticks`]).
    pub fn restart_budget_ticks(&self) -> u64 {
        self.config().restart_budget_ticks()
    }

    /// The configured authentication stance.
    pub fn auth_policy(&self) -> &AuthPolicy {
        &self.auth
    }

    /// The MRU this profile requests.
    pub fn mru_requested(&self) -> u16 {
        self.mru
    }

    /// The LCP magic number.
    pub fn magic_number(&self) -> u32 {
        self.magic
    }

    /// The IPCP address this endpoint brings to negotiation.
    pub fn ip_addr(&self) -> [u8; 4] {
        self.ip
    }

    /// Whether ACFC is requested.
    pub fn wants_acfc(&self) -> bool {
        self.acfc
    }

    /// Whether PFC is requested.
    pub fn wants_pfc(&self) -> bool {
        self.pfc
    }

    pub(crate) fn take_auth(&self) -> AuthPolicy {
        self.auth.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_knob() {
        let p = NegotiationProfile::new()
            .mru(2048)
            .magic(0xDEAD_BEEF)
            .ip([10, 0, 0, 7])
            .compression(true)
            .restart_period(5)
            .max_configure(4)
            .max_terminate(3)
            .pap_client(b"alice", b"s3cret");
        assert_eq!(p.mru_requested(), 2048);
        assert_eq!(p.magic_number(), 0xDEAD_BEEF);
        assert_eq!(p.ip_addr(), [10, 0, 0, 7]);
        assert!(p.wants_acfc() && p.wants_pfc());
        let cfg = p.config();
        assert_eq!(cfg.restart_period, 5);
        assert_eq!(cfg.max_configure, 4);
        assert_eq!(cfg.max_terminate, 3);
        assert_eq!(p.restart_budget_ticks(), (4 + 1) * 5);
        assert!(matches!(p.auth_policy(), AuthPolicy::PapClient { .. }));
    }
}
