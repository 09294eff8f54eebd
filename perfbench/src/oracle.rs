//! The ground-truth oracle every workload's checks use.
//!
//! It answers "how far is the nearest overlay member from this target"
//! by scanning the whole overlay with [`ClusterWorld::rtt`] — the
//! topology's own three-case latency rule — and never reads a latency
//! store, a ground-truth cache or an algorithm. A store, a cache or an
//! answer that disagrees with it is wrong, whichever backend produced it.

use np_metric::PeerId;
use np_topology::ClusterWorld;
use np_util::Micros;
use std::collections::BTreeMap;

/// True nearest-member RTT per target, from the topology alone.
#[derive(Debug, Clone)]
pub struct Oracle {
    nearest_rtt: BTreeMap<PeerId, Micros>,
}

impl Oracle {
    /// Scan `overlay` for every target (members equal to the target are
    /// skipped, as a peer is not its own neighbour).
    pub fn scan(world: &ClusterWorld, overlay: &[PeerId], targets: &[PeerId]) -> Oracle {
        let nearest_rtt = targets
            .iter()
            .map(|&t| {
                let best = overlay
                    .iter()
                    .filter(|&&p| p != t)
                    .map(|&p| world.rtt(p, t))
                    .min()
                    .expect("overlay holds a peer other than the target");
                (t, best)
            })
            .collect();
        Oracle { nearest_rtt }
    }

    /// The true nearest RTT of `target`; `None` if it was not scanned.
    pub fn nearest_rtt(&self, target: PeerId) -> Option<Micros> {
        self.nearest_rtt.get(&target).copied()
    }

    /// The targets scanned, in id order.
    pub fn targets(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.nearest_rtt.keys().copied()
    }

    /// Is `answer` a valid reply for `target`: a peer other than the
    /// target, no closer than the true nearest (a closer answer would
    /// mean the oracle, or the topology, is broken)?
    pub fn answer_is_sane(&self, world: &ClusterWorld, target: PeerId, answer: PeerId) -> bool {
        match self.nearest_rtt(target) {
            Some(best) => answer != target && world.rtt(answer, target) >= best,
            None => false,
        }
    }

    /// Is `answer` exactly as close as the true nearest?
    pub fn answer_is_exact(&self, world: &ClusterWorld, target: PeerId, answer: PeerId) -> bool {
        self.nearest_rtt(target) == Some(world.rtt(answer, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::ClusterWorldSpec;

    fn world() -> ClusterWorld {
        ClusterWorld::generate(
            ClusterWorldSpec {
                clusters: 3,
                en_per_cluster: 4,
                peers_per_en: 2,
                delta: 0.2,
                mean_hub_ms: (4.0, 6.0),
                intra_en: Micros::from_us(100),
                hub_pool: 3,
            },
            7,
        )
    }

    #[test]
    fn en_partner_is_the_nearest() {
        let w = world();
        let overlay: Vec<PeerId> = w.peers().collect();
        let oracle = Oracle::scan(&w, &overlay, &[PeerId(0), PeerId(5)]);
        // Peers 0/1 and 4/5 share an end-network: intra_en apart.
        assert_eq!(oracle.nearest_rtt(PeerId(0)), Some(Micros::from_us(100)));
        assert!(oracle.answer_is_exact(&w, PeerId(5), PeerId(4)));
        assert!(oracle.answer_is_sane(&w, PeerId(5), PeerId(11)));
        assert!(!oracle.answer_is_sane(&w, PeerId(5), PeerId(5)));
        assert_eq!(oracle.targets().count(), 2);
    }
}
