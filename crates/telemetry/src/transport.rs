//! Transport reliability counters.

use crate::json::Json;

/// Reliability counters a transport keeps *beside* the logical
/// interaction count. Retries, reconnects and faults are transport
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
}

impl TransportStats {
    /// Folds `other` into `self` (counters add; nothing is lost).
    pub fn merge(&mut self, other: &TransportStats) {
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.faults += other.faults;
    }

    /// The stats as a JSON object (field order is part of the
    /// `hps-telemetry/v1` schema).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("retries", self.retries)
            .field("reconnects", self.reconnects)
            .field("faults", self.faults)
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
        };
        a.merge(&TransportStats {
            retries: 10,
            reconnects: 20,
            faults: 30,
        });
        assert_eq!(
            a,
            TransportStats {
                retries: 11,
                reconnects: 22,
                faults: 33,
            }
        );
    }

    #[test]
    fn json_field_order_is_stable() {
        let text = TransportStats::default().to_json().pretty();
        let order: Vec<usize> = ["retries", "reconnects", "faults"]
            .iter()
            .map(|k| text.find(k).expect("field present"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
