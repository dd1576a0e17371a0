//! Transport reliability counters.

use crate::json::Json;

/// Reliability counters a transport keeps *beside* the logical
/// interaction count. Retries, reconnects and replays are transport
/// plumbing: they never add logical calls, trace events or interactions,
/// so they are reported separately from the paper's "Component
/// Interactions" (see `hps-runtime`'s `Channel::interactions`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportStats {
    /// Attempts beyond the first for some logical round trip.
    pub retries: u64,
    /// Connections re-established after a transport fault.
    pub reconnects: u64,
    /// Faults observed (timeouts, resets, cut frames).
    pub faults: u64,
    /// Deliveries answered from a replay cache instead of re-executing.
    /// The TCP client cannot tell a replayed reply from a fresh one and
    /// leaves this 0; the session server counts its replays in
    /// `hps_server_replays_total`.
    pub replays: u64,
}

impl TransportStats {
    /// Folds `other` into `self` (counters add; nothing is lost).
    pub fn merge(&mut self, other: &TransportStats) {
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.faults += other.faults;
        self.replays += other.replays;
    }

    /// The stats as a JSON object (field order is part of the
    /// `hps-telemetry/v1` schema).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("retries", self.retries)
            .field("reconnects", self.reconnects)
            .field("faults", self.faults)
            .field("replays", self.replays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = TransportStats {
            retries: 1,
            reconnects: 2,
            faults: 3,
            replays: 4,
        };
        a.merge(&TransportStats {
            retries: 10,
            reconnects: 20,
            faults: 30,
            replays: 40,
        });
        assert_eq!(
            a,
            TransportStats {
                retries: 11,
                reconnects: 22,
                faults: 33,
                replays: 44,
            }
        );
    }

    #[test]
    fn json_field_order_is_stable() {
        let text = TransportStats::default().to_json().pretty();
        let order: Vec<usize> = ["retries", "reconnects", "faults", "replays"]
            .iter()
            .map(|k| text.find(k).expect("field present"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
