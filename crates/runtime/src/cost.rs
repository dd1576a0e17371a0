//! Deterministic virtual-time cost model.
//!
//! The paper's Table 5 reports wall-clock runtimes before and after
//! splitting on one fixed setup: two LAN-connected machines. To make that
//! experiment reproducible we charge every executed operation a fixed
//! number of abstract *cost units* and every open↔hidden round trip a
//! latency; dividing by [`CostModel::units_per_second`] yields virtual
//! seconds. Relative overheads — the quantity the paper actually compares —
//! are invariant to the absolute scale chosen here.
//!
//! The weights are fixed: the interpreter, the fragment tree-walk and the
//! bytecode VM all charge [`COST_MODEL`]. The one varied parameter is the
//! round-trip latency, the `rtt` argument of
//! [`Executor::rtt`](crate::Executor::rtt) and
//! [`InProcessChannel::with_rtt`](crate::InProcessChannel::with_rtt)
//! ([`CostModel::lan_round_trip`] is the paper's LAN value).

/// Per-operation costs in abstract units.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// Plain assignment / variable read overhead.
    pub assign: u64,
    /// Arithmetic / relational / logical binary operation.
    pub binop: u64,
    /// Unary operation.
    pub unop: u64,
    /// Cheap builtin (`abs`, `min`, `max`, `len`, casts).
    pub builtin: u64,
    /// Transcendental builtin (`exp`, `log`, `sqrt`, `floor`).
    pub transcendental: u64,
    /// Array element access (bounds check + load/store).
    pub index: u64,
    /// Object field access.
    pub field: u64,
    /// Function call overhead (frame setup).
    pub call: u64,
    /// Branch / loop-condition evaluation overhead.
    pub branch: u64,
    /// `print` statement.
    pub print: u64,
    /// Array allocation, per element.
    pub alloc_per_elem: u64,
    /// Object allocation.
    pub alloc_object: u64,
    /// Marshalling cost per scalar argument of a hidden call (both sides).
    pub marshal_per_arg: u64,
    /// Virtual units per second, for converting to seconds.
    pub units_per_second: u64,
}

/// The cost model every layer charges.
pub const COST_MODEL: CostModel = CostModel::new();

impl CostModel {
    /// A model loosely calibrated so one unit ≈ one simple interpreted
    /// operation on the paper-era hardware (hundreds of ns), i.e.
    /// 10 million units per second.
    const fn new() -> CostModel {
        CostModel {
            assign: 1,
            binop: 1,
            unop: 1,
            builtin: 2,
            transcendental: 20,
            index: 2,
            field: 2,
            call: 10,
            branch: 1,
            print: 20,
            alloc_per_elem: 1,
            alloc_object: 10,
            marshal_per_arg: 5,
            units_per_second: 10_000_000,
        }
    }

    /// The charge for one builtin call — [`CostModel::transcendental`] for
    /// `exp`/`log`/`sqrt`/`floor`, [`CostModel::builtin`] otherwise. Shared
    /// by the fragment tree-walk and the bytecode lowerer so both account
    /// identically.
    pub fn builtin_cost(&self, b: hps_ir::Builtin) -> u64 {
        if b.is_transcendental() {
            self.transcendental
        } else {
            self.builtin
        }
    }

    /// Converts a unit count to virtual seconds.
    pub fn to_seconds(&self, units: u64) -> f64 {
        units as f64 / self.units_per_second as f64
    }

    /// A LAN-like round-trip latency in units (~0.3 ms at the default
    /// scale), matching the paper's two-machines-on-a-LAN setup.
    pub fn lan_round_trip(&self) -> u64 {
        self.units_per_second / 3_333
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversion() {
        let m = COST_MODEL;
        assert!((m.to_seconds(m.units_per_second) - 1.0).abs() < 1e-12);
        assert_eq!(m.to_seconds(0), 0.0);
    }

    #[test]
    fn lan_rtt_is_sub_millisecond_scale() {
        let m = COST_MODEL;
        let rtt_s = m.to_seconds(m.lan_round_trip());
        assert!(rtt_s > 1e-5 && rtt_s < 1e-3, "rtt = {rtt_s}");
    }
}
