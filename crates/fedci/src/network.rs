//! Wide-area network topology between endpoints.
//!
//! Each ordered endpoint pair has a link with a bandwidth and a propagation
//! latency. Bandwidth on a pair is shared equally among that pair's active
//! transfers up to the mechanism's concurrency limit (additional transfers
//! queue in the data manager). This "fixed fair share at start" model keeps
//! transfer completion times computable when a transfer begins — the same
//! property the paper's transfer profiler relies on when it predicts
//! transfer time from `(bandwidth, size, max concurrent transfers)`.

use crate::endpoint::EndpointId;
use simkit::SimDuration;

/// One directed link's characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl Link {
    /// A LAN-class link (10 GbE, sub-millisecond latency).
    pub fn lan() -> Self {
        Link {
            bandwidth_bps: 1.25e9,
            latency: SimDuration::from_micros(500),
        }
    }

    /// A wide-area research link (the common case between sites). The
    /// bandwidth is calibrated to the paper's observed behaviour: tens of
    /// GB moved over thousands of seconds implies shared links sustaining
    /// on the order of 20 MB/s per endpoint pair.
    pub fn wan() -> Self {
        Link {
            bandwidth_bps: 20.0 * 1024.0 * 1024.0,
            latency: SimDuration::from_millis(20),
        }
    }
}

/// Topology over all endpoints (including the home/submitting endpoint).
///
/// Stored as a dense row-major n×n link table built once at construction:
/// [`NetworkTopology::link`] and [`NetworkTopology::share_bps`] are plain
/// array reads on the data manager's and the transfer profiler's hot
/// paths, with no hashing. The diagonal holds the infinite-bandwidth
/// "shared filesystem" pseudo-link, so same-endpoint lookups need no
/// branch either.
#[derive(Clone, Debug)]
pub struct NetworkTopology {
    n: usize,
    links: Vec<Link>,
}

impl NetworkTopology {
    /// The link used for same-endpoint "transfers": effectively infinite
    /// (a shared filesystem, not a network hop).
    fn local_link() -> Link {
        Link {
            bandwidth_bps: f64::INFINITY,
            latency: SimDuration::ZERO,
        }
    }

    /// Creates a topology where every distinct pair uses `default_link`.
    pub fn uniform(n_endpoints: usize, default_link: Link) -> Self {
        let n = n_endpoints;
        let mut links = vec![default_link; n * n];
        for i in 0..n {
            links[i * n + i] = Self::local_link();
        }
        NetworkTopology { n, links }
    }

    /// Number of endpoints.
    pub fn n_endpoints(&self) -> usize {
        self.n
    }

    /// Dense row-major index of an ordered endpoint pair; also used by the
    /// data manager to key its own per-pair tables.
    #[inline]
    pub fn pair_id(&self, src: EndpointId, dst: EndpointId) -> usize {
        assert!(
            src.index() < self.n && dst.index() < self.n,
            "endpoint out of range"
        );
        src.index() * self.n + dst.index()
    }

    /// Overrides the link between a specific pair (both directions).
    /// Same-endpoint links cannot be overridden (always local).
    pub fn set_link(&mut self, a: EndpointId, b: EndpointId, link: Link) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "endpoint out of range"
        );
        if a == b {
            return;
        }
        self.links[a.index() * self.n + b.index()] = link;
        self.links[b.index() * self.n + a.index()] = link;
    }

    /// The link from `src` to `dst`. Same-endpoint "transfers" get an
    /// effectively infinite link (shared filesystem).
    #[inline]
    pub fn link(&self, src: EndpointId, dst: EndpointId) -> Link {
        self.links[self.pair_id(src, dst)]
    }

    /// Fair bandwidth share for one of `active` concurrent transfers on the
    /// `src → dst` link.
    pub fn share_bps(&self, src: EndpointId, dst: EndpointId, active: usize) -> f64 {
        let link = self.link(src, dst);
        link.bandwidth_bps / active.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u16) -> EndpointId {
        EndpointId(i)
    }

    #[test]
    fn uniform_default_and_override() {
        let mut net = NetworkTopology::uniform(3, Link::wan());
        assert_eq!(net.link(ep(0), ep(1)), Link::wan());
        net.set_link(ep(0), ep(2), Link::lan());
        assert_eq!(net.link(ep(0), ep(2)), Link::lan());
        assert_eq!(net.link(ep(2), ep(0)), Link::lan(), "symmetric");
        assert_eq!(net.link(ep(1), ep(2)), Link::wan());
    }

    #[test]
    fn local_transfers_are_free() {
        let net = NetworkTopology::uniform(2, Link::wan());
        let l = net.link(ep(1), ep(1));
        assert!(l.bandwidth_bps.is_infinite());
        assert_eq!(l.latency, SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_sharing() {
        let net = NetworkTopology::uniform(2, Link::wan());
        let full = net.share_bps(ep(0), ep(1), 1);
        let quarter = net.share_bps(ep(0), ep(1), 4);
        assert!((full / quarter - 4.0).abs() < 1e-9);
        // active = 0 treated as 1.
        assert_eq!(net.share_bps(ep(0), ep(1), 0), full);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let net = NetworkTopology::uniform(2, Link::wan());
        net.link(ep(0), ep(5));
    }

    #[test]
    fn link_presets_ordering() {
        assert!(Link::lan().bandwidth_bps > Link::wan().bandwidth_bps);
        assert!(Link::lan().latency < Link::wan().latency);
    }
}
