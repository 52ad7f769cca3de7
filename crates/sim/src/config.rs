//! Simulation configuration (Table 2 of the paper).

use crate::rng_contract::RngContract;
use serde::{Deserialize, Error, Serialize, Value};

/// Parameters of the cycle-level simulation.
///
/// [`SimConfig::paper_defaults`] reproduces Table 2: 8-packet input buffers,
/// 4-packet output buffers, virtual cut-through flow control, 16-phit packets,
/// 1-cycle links and crossbar, and an internal crossbar speedup of 2.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Packet length in phits.
    pub packet_length: u64,
    /// Capacity of each input virtual-channel FIFO, in packets.
    pub input_buffer_packets: usize,
    /// Capacity of each output staging buffer, in packets.
    pub output_buffer_packets: usize,
    /// Capacity of each server's source (injection) queue, in packets.
    pub source_queue_packets: usize,
    /// Link traversal latency in cycles (on top of serialization).
    pub link_latency: u64,
    /// Crossbar traversal latency in cycles (on top of serialization).
    pub crossbar_latency: u64,
    /// Internal crossbar speedup: the crossbar moves packets this many times
    /// faster than the links and can grant this many packets per output per cycle.
    pub crossbar_speedup: usize,
    /// Servers attached to every switch (the concentration).
    pub servers_per_switch: usize,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles of the measurement window.
    pub measure_cycles: u64,
    /// Seed for every random decision of the simulation (traffic, tie-breaks).
    pub seed: u64,
    /// If no packet moves for this many cycles while packets are in flight the
    /// simulator reports a stall (deadlock or undeliverable packets).
    pub watchdog_cycles: u64,
    /// Which versioned sequence of rate-mode generation draws the engine
    /// makes (see [`crate::rng_contract`]). New work defaults to v2 (the
    /// counting sampler); pin [`RngContract::V1PerServer`] to reproduce
    /// fixtures and stores produced before the contract was versioned.
    pub rng_contract: RngContract,
    /// Switch partitions the engine steps in parallel inside each cycle
    /// (1 = fully sequential; clamped to the switch count). **Run tuning
    /// only**: results are byte-identical for every value, so it never
    /// enters job fingerprints or stores.
    pub partitions: usize,
}

// Manual serde impls: `partitions` must round-trip while keeping legacy
// payloads byte-stable in both directions — a config with `partitions == 1`
// serializes without the field (so v4-era fixtures don't change), and a
// payload without the field (or without `rng_contract`) deserializes to the
// behaviour it actually ran under (sequential, contract v1). The vendored
// derive can't express either default, hence the hand-rolled impls; keep the
// field order identical to the declaration above.
impl Serialize for SimConfig {
    fn serialize(&self) -> Value {
        let mut entries = vec![
            ("packet_length".to_string(), self.packet_length.serialize()),
            (
                "input_buffer_packets".to_string(),
                self.input_buffer_packets.serialize(),
            ),
            (
                "output_buffer_packets".to_string(),
                self.output_buffer_packets.serialize(),
            ),
            (
                "source_queue_packets".to_string(),
                self.source_queue_packets.serialize(),
            ),
            ("link_latency".to_string(), self.link_latency.serialize()),
            (
                "crossbar_latency".to_string(),
                self.crossbar_latency.serialize(),
            ),
            (
                "crossbar_speedup".to_string(),
                self.crossbar_speedup.serialize(),
            ),
            (
                "servers_per_switch".to_string(),
                self.servers_per_switch.serialize(),
            ),
            ("num_vcs".to_string(), self.num_vcs.serialize()),
            ("warmup_cycles".to_string(), self.warmup_cycles.serialize()),
            (
                "measure_cycles".to_string(),
                self.measure_cycles.serialize(),
            ),
            ("seed".to_string(), self.seed.serialize()),
            (
                "watchdog_cycles".to_string(),
                self.watchdog_cycles.serialize(),
            ),
            ("rng_contract".to_string(), self.rng_contract.serialize()),
        ];
        if self.partitions != 1 {
            entries.push(("partitions".to_string(), self.partitions.serialize()));
        }
        Value::Object(entries)
    }
}

impl Deserialize for SimConfig {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let Value::Object(entries) = value else {
            return Err(Error::type_mismatch("object", value));
        };
        let optional = |name: &'static str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        Ok(SimConfig {
            packet_length: serde::de_field(value, "packet_length")?,
            input_buffer_packets: serde::de_field(value, "input_buffer_packets")?,
            output_buffer_packets: serde::de_field(value, "output_buffer_packets")?,
            source_queue_packets: serde::de_field(value, "source_queue_packets")?,
            link_latency: serde::de_field(value, "link_latency")?,
            crossbar_latency: serde::de_field(value, "crossbar_latency")?,
            crossbar_speedup: serde::de_field(value, "crossbar_speedup")?,
            servers_per_switch: serde::de_field(value, "servers_per_switch")?,
            num_vcs: serde::de_field(value, "num_vcs")?,
            warmup_cycles: serde::de_field(value, "warmup_cycles")?,
            measure_cycles: serde::de_field(value, "measure_cycles")?,
            seed: serde::de_field(value, "seed")?,
            watchdog_cycles: serde::de_field(value, "watchdog_cycles")?,
            rng_contract: match optional("rng_contract") {
                Some(v) => RngContract::deserialize(v)?,
                None => RngContract::V1PerServer,
            },
            partitions: match optional("partitions") {
                Some(v) => usize::deserialize(v)?,
                None => 1,
            },
        })
    }
}

impl SimConfig {
    /// The parameters of Table 2, with the concentration and VC count supplied
    /// by the experiment (16 servers/switch and 4 VCs in 2D, 8 and 6 in 3D).
    pub fn paper_defaults(servers_per_switch: usize, num_vcs: usize) -> Self {
        SimConfig {
            packet_length: 16,
            input_buffer_packets: 8,
            output_buffer_packets: 4,
            source_queue_packets: 8,
            link_latency: 1,
            crossbar_latency: 1,
            crossbar_speedup: 2,
            servers_per_switch,
            num_vcs,
            warmup_cycles: 5_000,
            measure_cycles: 10_000,
            seed: 1,
            watchdog_cycles: 50_000,
            rng_contract: RngContract::V2Counting,
            partitions: 1,
        }
    }

    /// A scaled-down configuration for fast tests: short warmup/measurement
    /// windows, otherwise identical to the paper's parameters.
    pub fn quick(servers_per_switch: usize, num_vcs: usize) -> Self {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            ..Self::paper_defaults(servers_per_switch, num_vcs)
        }
    }

    /// Total number of servers for a network with `switches` switches.
    pub fn total_servers(&self, switches: usize) -> usize {
        switches * self.servers_per_switch
    }

    /// Validates internal consistency; called by the simulator constructor.
    pub fn validate(&self) {
        assert!(
            self.packet_length > 0,
            "packets must have at least one phit"
        );
        assert!(
            self.input_buffer_packets > 0,
            "input buffers cannot be empty"
        );
        assert!(
            self.output_buffer_packets > 0,
            "output buffers cannot be empty"
        );
        assert!(
            self.source_queue_packets > 0,
            "source queues cannot be empty"
        );
        assert!(self.crossbar_speedup > 0, "the crossbar must move packets");
        assert!(self.servers_per_switch > 0, "switches need servers");
        assert!(self.num_vcs > 0, "at least one VC is required");
        assert!(self.watchdog_cycles > 0, "the watchdog must be armed");
        assert!(self.partitions > 0, "at least one switch partition");
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults(8, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = SimConfig::paper_defaults(16, 4);
        assert_eq!(c.packet_length, 16);
        assert_eq!(c.input_buffer_packets, 8);
        assert_eq!(c.output_buffer_packets, 4);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.crossbar_latency, 1);
        assert_eq!(c.crossbar_speedup, 2);
        assert_eq!(c.servers_per_switch, 16);
        assert_eq!(c.num_vcs, 4);
        c.validate();
    }

    #[test]
    fn quick_config_shrinks_only_windows() {
        let q = SimConfig::quick(8, 6);
        let p = SimConfig::paper_defaults(8, 6);
        assert!(q.warmup_cycles < p.warmup_cycles);
        assert!(q.measure_cycles < p.measure_cycles);
        assert_eq!(q.packet_length, p.packet_length);
        assert_eq!(q.input_buffer_packets, p.input_buffer_packets);
    }

    #[test]
    fn rng_contract_defaults_v2_new_v1_for_legacy_payloads() {
        assert_eq!(SimConfig::default().rng_contract, RngContract::V2Counting);
        // A config serialized before the contract was versioned carries no
        // `rng_contract` field and must deserialize as v1 — the contract it
        // actually ran under.
        let serde::Value::Object(entries) = SimConfig::default().serialize() else {
            panic!("SimConfig must serialize as an object");
        };
        let legacy: Vec<_> = entries
            .into_iter()
            .filter(|(k, _)| k != "rng_contract")
            .collect();
        let parsed = SimConfig::deserialize(&serde::Value::Object(legacy)).unwrap();
        assert_eq!(parsed.rng_contract, RngContract::V1PerServer);
    }

    #[test]
    fn partitions_default_1_omitted_when_1_and_round_trips_otherwise() {
        // Legacy payloads (no `partitions` field) parse as sequential.
        let serde::Value::Object(entries) = SimConfig::default().serialize() else {
            panic!("SimConfig must serialize as an object");
        };
        assert!(
            entries.iter().all(|(k, _)| k != "partitions"),
            "partitions == 1 must not be serialized (legacy byte stability)"
        );
        let parsed = SimConfig::deserialize(&serde::Value::Object(entries)).unwrap();
        assert_eq!(parsed.partitions, 1);
        // Non-default values round-trip.
        let cfg = SimConfig {
            partitions: 4,
            ..SimConfig::default()
        };
        let parsed = SimConfig::deserialize(&cfg.serialize()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn serialization_field_order_is_stable() {
        // Stores hash serialized configs; the field order is part of the
        // byte contract.
        let serde::Value::Object(entries) = SimConfig::default().serialize() else {
            panic!("SimConfig must serialize as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "packet_length",
                "input_buffer_packets",
                "output_buffer_packets",
                "source_queue_packets",
                "link_latency",
                "crossbar_latency",
                "crossbar_speedup",
                "servers_per_switch",
                "num_vcs",
                "warmup_cycles",
                "measure_cycles",
                "seed",
                "watchdog_cycles",
                "rng_contract",
            ]
        );
    }

    #[test]
    #[should_panic]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_partitions_rejected() {
        let mut c = SimConfig::default();
        c.partitions = 0;
        c.validate();
    }

    #[test]
    fn total_servers_scales_with_switches() {
        let c = SimConfig::paper_defaults(8, 6);
        assert_eq!(c.total_servers(512), 4096);
    }

    #[test]
    #[should_panic]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_vcs_rejected() {
        let mut c = SimConfig::default();
        c.num_vcs = 0;
        c.validate();
    }

    #[test]
    #[should_panic]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_packet_length_rejected() {
        let mut c = SimConfig::default();
        c.packet_length = 0;
        c.validate();
    }
}
